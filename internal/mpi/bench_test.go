package mpi

import (
	"fmt"
	"testing"
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
