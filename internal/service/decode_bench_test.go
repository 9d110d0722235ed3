package service

// Decode-funnel benchmarks (DESIGN.md §10). Record them with
//
//	scripts/bench.sh -bench 'DecodeBatch' -pkg ./internal/service -count 5

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"tilingsched/internal/service/binwire"
)

// BenchmarkDecodeBatch times one 1,024-point explicit batch through
// each codec's decode funnel, as the handler calls it: the JSON batch
// funnel and DecodeBinaryBatch, each into one reused BinScratch. The
// coordinates are drawn from [−1000, 1000], as perfbench draws them, in
// 2 and 3 dimensions. One op is one request body.
func BenchmarkDecodeBatch(b *testing.B) {
	const points = 1024
	for _, c := range []struct {
		dim  int
		plan PlanSpec
	}{
		{2, PlanSpec{Tile: TileSpec{Name: "cross:2:1"}}},
		{3, PlanSpec{Lattice: "cubic:3", Tile: TileSpec{Name: "cross:3:1"}}},
	} {
		rng := rand.New(rand.NewPCG(uint64(c.dim), 0))
		req := BatchRequest{Plan: c.plan, Points: make([][]int, points)}
		for i := range req.Points {
			p := make([]int, c.dim)
			for a := range p {
				p[a] = rng.IntN(2001) - 1000
			}
			req.Points[i] = p
		}
		jsonBody, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		var e binwire.Buffer
		EncodeBatchBinary(&e, req, false, "")
		binBody := e.Bytes()
		var sc BinScratch
		b.Run(fmt.Sprintf("json-%dd", c.dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeBatchJSON(jsonBody, Limits{}, &sc); err != nil || len(sc.pts) != points {
					b.Fatalf("decode: %v (%d points)", err, len(sc.pts))
				}
			}
		})
		b.Run(fmt.Sprintf("bin-%dd", c.dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if req, err := DecodeBinaryBatch(binBody, Limits{}, &sc); err != nil || len(req.Points) != points {
					b.Fatalf("decode: %v (%d points)", err, len(req.Points))
				}
			}
		})
	}
}
