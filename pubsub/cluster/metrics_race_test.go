package cluster

// Node.Metrics returns a locked copy of the counters, so scraping it
// (directly, or through the observability registry's callbacks) while
// the protocol runs must be race-free and never observe torn state.
// This test is a -race net: mutators drive Tick and HandleControl
// while readers hammer Metrics, AliveCount, and a registry scrape.

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probsum/internal/broker"
	"probsum/internal/obs"
)

// discardLink is a stateless Link: sends vanish, connects succeed.
// Having no state of its own, it is safe from every goroutine.
type discardLink struct{ self string }

func (l *discardLink) Self() string                     { return l.self }
func (l *discardLink) Send(string, broker.Message) bool { return true }
func (l *discardLink) Connect(_, _ string, done func(bool, error)) {
	done(true, nil)
}
func (l *discardLink) Roots(string) []broker.BatchSub          { return nil }
func (l *discardLink) ClusterCapable(string) bool              { return true }
func (l *discardLink) SyncOnConnect() bool                     { return true }
func (l *discardLink) Digest(string) (broker.LinkDigest, bool) { return broker.LinkDigest{}, false }

func TestNodeMetricsConcurrent(t *testing.T) {
	var nanos atomic.Int64
	n := NewNode(Member{ID: "A"}, &discardLink{self: "A"}, Config{
		Clock: func() time.Time { return time.Unix(0, nanos.Load()) },
	})
	n.AddMember(Member{ID: "B", Addr: "b:1"}, true)

	reg := obs.NewRegistry(nil)
	n.RegisterObservability(reg)

	const iters = 500
	var mutators sync.WaitGroup
	mutators.Add(2)
	go func() {
		defer mutators.Done()
		for i := 0; i < iters; i++ {
			nanos.Add(int64(time.Second))
			n.Tick()
		}
	}()
	go func() {
		defer mutators.Done()
		for i := 0; i < iters; i++ {
			n.HandleControl("B", broker.Message{Kind: broker.MsgPing, Seq: uint64(i)})
			n.HandleControl("B", broker.Message{Kind: broker.MsgGossip, Members: []broker.MemberInfo{
				{ID: "B", Incarnation: uint64(i % 5), State: broker.MemberAlive},
			}})
		}
	}()

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = n.Metrics()
				_, _ = n.AliveCount()
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	mutators.Wait()
	close(done)
	readers.Wait()

	if m := n.Metrics(); m.PingsSent == 0 {
		t.Error("ticking node sent no pings")
	}
	out := reg.JSON()
	if out.Counters["cluster_pings_sent"] == 0 {
		t.Error("registry scrape missing cluster_pings_sent")
	}
	if out.Gauges["cluster_members_total"] < 2 {
		t.Errorf("cluster_members_total = %d, want >= 2", out.Gauges["cluster_members_total"])
	}
}
