package brepartition_test

import (
	"context"
	"testing"

	"brepartition"
)

// BenchmarkServeLoopback measures the full serving stack over HTTP
// loopback — client encode, keep-alive transport, admission, engine
// execution, and response decode — with
// one concurrent client goroutine per GOMAXPROCS (b.RunParallel), using
// the binary protocol. Compare against BenchmarkSearchM8 for the pure
// in-process cost; the delta is the serving overhead budget.
func BenchmarkServeLoopback(b *testing.B) {
	url, _, _, _ := servingFixture(b, 2000)
	queries := servingPoints(64, 8, 1234)
	c := brepartition.NewClient(url, brepartition.WithBinary())
	defer c.Close()
	ctx := context.Background()

	// One warmup to populate the connection pool before timing.
	if _, err := c.Search(ctx, queries[0], 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := queries[i%len(queries)]
			i++
			if _, err := c.Search(ctx, q, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}
