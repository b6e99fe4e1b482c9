package dsm

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/sim"
)

// BenchmarkDSMFaultRetry measures a remote DSM write fault on the
// retrying protocol (msg.DefaultRetryPolicy) over a lossless fabric: the
// ping-pong of the root package's BenchmarkDSMFault, with a reply
// deadline on every call and on the requester's wait. Every op moves the
// page; half of them fetch it from the other node with invfetch.
func BenchmarkDSMFaultRetry(b *testing.B) {
	p := DefaultParams()
	p.Retry = msg.DefaultRetryPolicy()
	env, d := newTestDSM(2, p)
	d.poison = false
	b.ReportAllocs()
	b.ResetTimer()
	env.Spawn("pingpong", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.Touch(p, i%2, 12345, true)
		}
	})
	env.Run()
	if r := d.TotalStats().Retries; r != 0 {
		b.Fatalf("%d retries on a lossless fabric", r)
	}
}
