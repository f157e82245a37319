package clock

import "testing"

// The short sample and the long measurement time the same loop. The
// sample is the fastest of a few short bursts, so whatever else the
// machine is doing it cannot read much slower than the median of the
// long batches — only the step between the host's two clocks.
func TestSlowdownAgreesWithPassNs(t *testing.T) {
	short := Slowdown()
	long := PassNs() / RefPassNs
	if short <= 0 || long <= 0 {
		t.Fatalf("slow-down %v, long measurement %v", short, long)
	}
	if short > 1.5*long {
		t.Errorf("a sample says %.3f, the long measurement %.3f", short, long)
	}
}
