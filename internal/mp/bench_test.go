package mp

import "testing"

// BenchmarkWorldRecv is the package's twin of the bench's mp.rtt_us
// probe: a 400 B ping-pong on a 2-rank World, one round trip per op. It
// also reports the receives per round trip, on either rank, whose
// yield window expired before they parked.
func BenchmarkWorldRecv(b *testing.B) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	var msg any = make([]float32, 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			c1.Send(0, 2, c1.Recv(0, 1))
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0.Send(1, 1, msg)
		c0.Recv(1, 2)
	}
	b.StopTimer()
	<-done
	var expired int64
	for _, c := range []*Comm{c0, c1} {
		for _, l := range c.Stats().Snapshot() {
			expired += l.SpinsExpired
		}
	}
	b.ReportMetric(float64(expired)/float64(b.N), "expired/op")
}

// BenchmarkAllreduce is the twin of the bench's mp.allreduce_us probe:
// a scalar AllreduceSum on a 2-rank World, one collective per op.
func BenchmarkAllreduce(b *testing.B) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := w.Comm(1)
		for i := 0; i < b.N; i++ {
			c.AllreduceSum(float64(i))
		}
	}()
	c := w.Comm(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AllreduceSum(float64(i))
	}
	b.StopTimer()
	<-done
}
