package main

// Metric describes one reported number. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds; a
// test keeps the two in step.
type Metric struct {
	Name   string
	Unit   string
	Higher bool // true when higher is better
	// Bound is the share of the parent's median by which the metric may
	// get worse before a change is a regression (end-to-end only).
	Bound float64
}

// endToEnd is what a user of the brokers sees. Each is the median over
// a run's rounds of the round's value, and every workload measures each
// of them with a phase of full length. Latency, throughput and admission
// are scaled, slice by slice, to the reference clock of package clock
// (set-up is not: it waits on timers as much as it computes); the values
// as measured are the client.*_raw_* figures below. NOISE.md has the
// spreads the bounds were set from.
var endToEnd = []Metric{
	{"setup_s", "s", false, 0.25},           // first brokerd exec until the base population is admitted and barrier-confirmed
	{"notify_p50_us", "us", false, 0.25},    // publish until S holds the whole delivery set, one publication in flight: the round's median
	{"pubs_per_s", "1/s", true, 0.25},       // publications completed per second with 32 in flight
	{"sub_active_per_s", "1/s", true, 0.25}, // subscriptions per second admitted in SubscribeBatch frames of 100, barrier-confirmed at the far broker
	{"rss_mb", "MB", false, 0.10},           // sum of the brokers' peak resident set (VmHWM) after the last admission
}

// perLayer explains the end-to-end numbers. System-side entries come
// from traced rounds (brokerd's /metrics.json diffed across a phase);
// the rest from replaying the workload's inputs through one layer's
// public functions inside the benchmark process.
var perLayer = []Metric{
	{"client.notify_p50_raw_us", "us", false, 0},      // notify_p50_us as measured, not scaled to the reference clock
	{"client.pubs_raw_per_s", "1/s", true, 0},         // pubs_per_s as measured
	{"client.sub_active_raw_per_s", "1/s", true, 0},   // sub_active_per_s as measured
	{"client.slowdown", "ratio", false, 0},            // the fixed-work loop's time over the reference, median of the samples inside the latency phase: which clock the host ran
	{"client.sub_active_p50_us", "us", false, 0},      // admit-churn: one Subscribe until its barrier returns, the round's median
	{"client.unsub_per_s", "1/s", true, 0},            // admit-churn: subscriptions per second retired in UnsubscribeBatch frames of 100 from a uniform sample of everything live, barrier-confirmed
	{"client.recover_s", "s", false, 0},               // durable-mixed: SIGKILL of every broker, first re-exec until the first probe from P reaches S through the replayed state
	{"client.notify_p90_us", "us", false, 0},          // 90th percentile of publish→complete, one in flight
	{"client.notify_p99_us", "us", false, 0},          // 99th percentile of publish→complete, one in flight (the shared host's tail; never gated)
	{"client.notify_samples", "count", true, 0},       // latency samples per round
	{"client.cpu_us_per_pub", "us", false, 0},         // the generator's own CPU per publication in the throughput phase
	{"client.deliveries_expected", "count", true, 0},  // deliveries the reference says S must receive
	{"client.deliveries_missing", "count", false, 0},  // expected deliveries that never came
	{"client.deliveries_spurious", "count", false, 0}, // deliveries outside the reference, or duplicated
	{"client.barrier_timeouts", "count", false, 0},    // barriers not confirmed within 10 s
	{"client.calib_ns", "ns", false, 0},               // paperbench's fixed-work loop, mean of before and after the workload (diagnostic only)
	{"client.round_iqr_frac_max", "ratio", false, 0},  // largest (q3-q1)/median over rounds among the end-to-end metrics: how unquiet the host was
	{"client.trace_overhead_frac", "ratio", false, 0}, // 1 - pubs_per_s of traced rounds / pubs_per_s of untraced rounds of the same run

	{"tcp.decode_ns_per_frame", "ns", false, 0},     // publish_stage_decode_ns per decoded frame, all brokers, throughput phase
	{"tcp.enqueue_ns_per_frame", "ns", false, 0},    // publish_stage_enqueue_ns per queued frame
	{"tcp.write_ns_per_frame", "ns", false, 0},      // publish_stage_write_ns (encode + write) per written frame
	{"tcp.frames_out_per_pub", "count", false, 0},   // frames all brokers sent per completed publication
	{"tcp.send_queue_depth_max", "count", false, 0}, // deepest per-port send queue seen while sampling the throughput phase
	{"tcp.relink_s", "s", false, 0},                 // client.recover_s minus persist.replay_s: peers and S linking up again
	{"tcp.unattributed_us_per_pub", "us", false, 0}, // broker.cpu_us_per_pub minus the replayed layers times hops
	{"tcp.unattributed_us_per_sub", "us", false, 0}, // broker.cpu_us_per_sub minus the replayed admission path times hops

	{"codec.encode_pub_ns", "ns", false, 0},                     // MarshalFrame of one publish frame
	{"codec.decode_pub_ns", "ns", false, 0},                     // UnmarshalFrame of one publish frame
	{"codec.decode_pub_allocs", "count", false, 0},              // allocations per publish-frame decode
	{"codec.encode_notify_ns", "ns", false, 0},                  // MarshalFrame of one notify frame
	{"codec.decode_notify_ns", "ns", false, 0},                  // UnmarshalFrame of one notify frame
	{"codec.encode_subbatch_ns_per_sub", "ns", false, 0},        // MarshalFrame of a 100-subscription batch, per subscription
	{"codec.decode_subbatch_ns_per_sub", "ns", false, 0},        // UnmarshalFrame of that batch, per subscription
	{"codec.decode_subbatch_allocs_per_sub", "count", false, 0}, // allocations of that decode per subscription
	{"codec.pub_frame_bytes", "B", false, 0},                    // encoded size of a publish frame
	{"codec.subbatch_bytes_per_sub", "B", false, 0},             // encoded size of the batch per subscription

	{"broker.cpu_us_per_pub", "us", false, 0},               // CPU of all brokerd processes over the throughput phase per completed publication
	{"broker.cpu_us_per_sub", "us", false, 0},               // CPU of all brokerd processes over the burst admission per subscription admitted
	{"broker.match_stage_ns_per_pub", "ns", false, 0},       // publish_stage_match_ns per publication handled, all brokers
	{"broker.route_stage_ns_per_pub", "ns", false, 0},       // publish_stage_route_ns per publication handled
	{"broker.handle_pub_ns", "ns", false, 0},                // Broker.Handle of one publication on an in-process broker holding the base population
	{"broker.handle_pub_allocs", "count", false, 0},         // allocations of that call
	{"broker.handle_sub_ns_per_sub", "ns", false, 0},        // Broker.Handle of a 100-subscription batch with one neighbour, per subscription
	{"broker.handle_sub_allocs_per_sub", "count", false, 0}, // allocations of that call per subscription
	{"broker.handle_unsub_ns_per_sub", "ns", false, 0},      // Broker.Handle of a 100-subscription unsubscribe batch, per subscription
	{"broker.sub_forward_ratio", "ratio", false, 0},         // subscriptions S's broker forwarded / subscriptions it received: the paper's table reduction (0 without a neighbour)
	{"broker.subs_received", "count", false, 0},             // broker_subs_received, all brokers, whole round
	{"broker.subs_forwarded", "count", false, 0},            // broker_subs_forwarded
	{"broker.subs_suppressed", "count", true, 0},            // broker_subs_suppressed
	{"broker.promotions", "count", false, 0},                // broker_promotions
	{"broker.pubs_forwarded", "count", false, 0},            // broker_pubs_forwarded
	{"broker.notifications", "count", false, 0},             // broker_notifications
	{"broker.dup_pubs_dropped", "count", false, 0},          // broker_dup_pubs_dropped

	{"match.match_ns", "ns", false, 0},           // ITreeIndex.Match of one pool point over the base population
	{"match.match_allocs", "count", false, 0},    // allocations of that call
	{"match.matches_per_pub", "count", false, 0}, // subscriptions matched per pool point
	{"match.add_ns", "ns", false, 0},             // ITreeIndex.Add per subscription (index rebuild included)
	{"match.remove_ns", "ns", false, 0},          // ITreeIndex.Remove per subscription

	{"subsume.subscribe_batch_ns_per_sub", "ns", false, 0},   // Table.SubscribeBatch in batches of 100 over base then burst, per subscription
	{"subsume.subscribe_ns", "ns", false, 0},                 // Table.Subscribe of one subscription into the populated table
	{"subsume.unsubscribe_batch_ns_per_sub", "ns", false, 0}, // Table.UnsubscribeBatch over the retire sample, per subscription
	{"subsume.allocs_per_sub", "count", false, 0},            // allocations per subscription admitted by SubscribeBatch
	{"subsume.active_frac", "ratio", false, 0},               // active (forwarded) share of the table after the burst
	{"subsume.promotions_per_unsub", "count", false, 0},      // covered subscriptions promoted per retired one

	{"store.subscribe_ns", "ns", false, 0},      // Store.Subscribe, group policy, base then burst in arrival order
	{"store.unsubscribe_ns", "ns", false, 0},    // Store.Unsubscribe over the retire sample
	{"store.allocs_per_sub", "count", false, 0}, // allocations per Store.Subscribe

	{"core.covered_ns", "ns", false, 0},                      // Checker.CoveredInto on every 20th admission against the active set of that moment
	{"core.covered_allocs", "count", false, 0},               // allocations of that call
	{"core.set_size_mean", "count", false, 0},                // mean active-set size handed to the checker
	{"core.rspc_trials_per_call", "count", false, 0},         // executed RSPC trials per call
	{"core.reason_pairwise_frac", "ratio", false, 0},         // share of decisions by pairwise cover
	{"core.reason_polyhedron_frac", "ratio", false, 0},       // share of decisions by polyhedron witness
	{"core.reason_empty_mcs_frac", "ratio", false, 0},        // share of decisions by an empty minimised cover set
	{"core.reason_point_witness_frac", "ratio", false, 0},    // share of decisions by a point witness
	{"core.reason_trials_exhausted_frac", "ratio", false, 0}, // share of decisions by exhausted trials (probabilistic cover)

	{"conflict.build_ns", "ns", false, 0},         // conflict.Table.Reset on the checker's sampled pairs
	{"conflict.build_ns_per_row", "ns", false, 0}, // the same per set member

	{"persist.append_ns", "ns", false, 0},             // DirStore.Append of one journal record
	{"persist.sync_ns", "ns", false, 0},               // DirStore.Sync after 64 appends
	{"persist.syncs_per_1k_ops", "count", false, 0},   // fsyncs per thousand journaled operations at the workload's -journal-sync
	{"persist.journal_bytes_per_op", "B", false, 0},   // journal bytes appended per handled message
	{"persist.journal_cpu_us_per_op", "us", false, 0}, // Broker.Handle with a journal over a DirStore minus without, per message
	{"persist.replay_s", "s", false, 0},               // restarted brokerd: exec until its 'recovered from' line (0 when not durable)
	{"persist.replay_records", "count", false, 0},     // snapshot operations plus journal records replayed
}
