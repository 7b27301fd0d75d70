package main

import (
	"bytes"
	"testing"

	"permchain/internal/wire"
)

// stream encodes n transactions per phase through the wire codec, so
// "identical" means byte-identical on the wire.
func stream(g *generator, phases []string, n int) ([]byte, []string) {
	enc := wire.GetEncoder()
	defer wire.PutEncoder(enc)
	var out []byte
	var ids []string
	for _, ph := range phases {
		for i := 0; i < n; i++ {
			tx := g.next(ph)
			ids = append(ids, tx.ID)
			enc.Reset()
			wire.TxCodec.EncodeFrame(enc, &tx)
			out = append(out, enc.Frame()...)
		}
	}
	return out, ids
}

func TestGeneratorIsSeeded(t *testing.T) {
	phases := []string{"warm", "steady", "peak", "recover"}
	for _, w := range workloads {
		a, ids := stream(newGenerator(w.mix, 7), phases, 200)
		b, _ := stream(newGenerator(w.mix, 7), phases, 200)
		c, _ := stream(newGenerator(w.mix, 8), phases, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different transaction streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave the same transaction stream", w.name)
		}
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("%s: transaction ID %q repeats", w.name, id)
			}
			seen[id] = true
		}
	}
}

func TestGeneratorMixes(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w.mix, 1)
		cross, hot, accesses := 0, 0, 0
		const n = 20000
		for i := 0; i < n; i++ {
			tx := g.next("t")
			if w.mix.shards > 0 {
				if len(tx.Ops) != 2 || tx.Ops[0].Delta+tx.Ops[1].Delta != 0 {
					t.Fatalf("%s: transfer %v does not conserve the sum", w.name, tx.Ops)
				}
				if isCrossShard(tx) {
					cross++
				}
				continue
			}
			if want := w.mix.adds + w.mix.puts + w.mix.gets; len(tx.Ops) != want {
				t.Fatalf("%s: %d ops, want %d", w.name, len(tx.Ops), want)
			}
			for _, op := range tx.Ops {
				accesses++
				if w.mix.hotKeys > 0 && op.Key < g.addKeys[0][w.mix.hotKeys] {
					hot++
				}
			}
		}
		if w.mix.shards > 0 {
			if share := float64(cross) / n; share < w.mix.crossShare-0.02 || share > w.mix.crossShare+0.02 {
				t.Errorf("%s: %.3f of transactions span two shards, want %.2f", w.name, share, w.mix.crossShare)
			}
		}
		if w.mix.hotKeys > 0 {
			if share := float64(hot) / float64(accesses); share < w.mix.hotShare-0.02 || share > w.mix.hotShare+0.02 {
				t.Errorf("%s: %.3f of accesses hit the hot set, want %.2f", w.name, share, w.mix.hotShare)
			}
		}
	}
}
