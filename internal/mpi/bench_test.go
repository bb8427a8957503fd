package mpi

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// benchmarkSendRecv drives a 2-rank ping stream through the runtime; the
// per-op cost is one Send plus one Recv. Comparing the three variants
// bounds what the telemetry layer adds to the message path — with both
// disabled the only added work is two nil pointer checks, which should be
// within noise (< 2 ns/op) of the pre-telemetry runtime.
func benchmarkSendRecv(b *testing.B, metrics, tracing bool) {
	w, err := NewWorld(2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if metrics {
		w.EnableMetrics()
	}
	if tracing {
		w.EnableTracing()
	}
	payload := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	err = w.Run(func(p *Proc) error {
		c := p.World()
		if p.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := p.Send(c, 1, 1, payload); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			buf, err := p.Recv(c, 0, 1)
			if err != nil {
				return err
			}
			p.Recycle(buf)
		}
		return nil
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSendRecvTelemetryOff(b *testing.B) { benchmarkSendRecv(b, false, false) }
func BenchmarkSendRecvMetricsOn(b *testing.B)    { benchmarkSendRecv(b, true, false) }
func BenchmarkSendRecvTracingOn(b *testing.B)    { benchmarkSendRecv(b, false, true) }

// BenchmarkBufPoolRoundTrip times one GetBuf → PutBuf pair at the smallest,
// a typical and a large size class; allocs/op is the pool's own overhead
// and should read 0.
func BenchmarkBufPoolRoundTrip(b *testing.B) {
	for _, class := range []int{0, 6, 12} {
		b.Run(fmt.Sprintf("class=%d", class), func(b *testing.B) {
			n := 1 << class
			PutBuf(GetBuf(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				PutBuf(GetBuf(n))
			}
		})
	}
}

// BenchmarkWorldSetup measures bare world construction at the paper's
// strong-scaling rank counts (Table 1): mailbox and accounting state for a
// full-load placement, no ranks started.
func BenchmarkWorldSetup(b *testing.B) {
	for _, ranks := range []int{144, 576, 1296} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			cfg, err := cluster.NewConfig(ranks, cluster.FullLoad, cluster.MarconiA3())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewWorld(ranks, Options{Config: &cfg}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
