package bench

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"permchain/internal/core"
	"permchain/internal/network"
	"permchain/internal/quorumcert"
	"permchain/internal/statedb"
	"permchain/internal/types"
	"permchain/internal/wire"
)

// E17WireCodec measures the zero-copy wire codec and the allocation-free
// hot path (DESIGN.md, "Wire format"), in four arms:
//
//   - frame: encode/decode cost, frame size, and allocs/op for the
//     shared payload codecs (transaction, Schnorr partial, quorum cert).
//     Steady-state encode must be allocation-free for all three, and
//     decode-into-scratch allocation-free for partial and cert — the
//     hard gates the refactor was done for.
//   - bytes/msg: serialized payload size per protocol, measured from a
//     live 4-node wire-mode cluster of each ordering protocol.
//   - executor: allocs per simulated transaction on SimulateList with a
//     reused scratch, the executor every architecture runs. It must make
//     at most maxExecAllocs allocations per transaction — an absolute,
//     host-independent gate.
//   - pipeline: end-to-end pipelined throughput of the identical
//     workload over struct-pointer vs wire-codec transport. Serializing
//     every message must cost at most a noise-level slowdown; that
//     wall-clock ratio is enforced only at full scale, while both modes
//     assert replication and zero codec drops.
func E17WireCodec(quick bool) (*Table, error) {
	iters := 200000
	clusterTxs := 240
	pipeTxs := 1200
	if quick {
		iters = 20000
		clusterTxs = 60
		pipeTxs = 600
	}

	tbl := &Table{
		ID:      "E17",
		Title:   "zero-copy wire codec: frame cost, per-protocol message size, executor and transport allocation profile",
		Claim:   "a length-prefixed binary codec with pooled buffers serializes every consensus payload without steady-state allocation, and the slice-based executor records read/write sets without per-transaction maps — so serialized transport costs no measurable throughput",
		Columns: []string{"arm", "case", "result", "detail"},
		Notes: []string{
			"frame arm: encode into a pooled encoder, decode into a reused scratch value; allocs measured with testing.AllocsPerRun",
			"tx decode allocates by design: decoded strings and read/write list values are owned by the receiver, never aliased to the pooled frame",
			"bytes/msg arm: 4-node wire-mode cluster per protocol; bytes are serialized payload frames, envelopes excluded",
			"executor arm: a 5-op payload (3 reads, 2 read-modify-writes) through SimulateList with a reused scratch; the allocations left are the two encoded integer values",
			"pipeline arm: identical PBFT/OX workload; the wire arm serializes every message through the codec",
		},
	}

	if err := e17Frames(tbl, iters); err != nil {
		return tbl, err
	}
	if err := e17BytesPerMsg(tbl, clusterTxs); err != nil {
		return tbl, err
	}
	if err := e17Executor(tbl); err != nil {
		return tbl, err
	}
	if err := e17Pipeline(tbl, pipeTxs, quick); err != nil {
		return tbl, err
	}
	return tbl, nil
}

// e17Frames measures the shared payload codecs and enforces the
// allocs/op gates.
func e17Frames(tbl *Table, iters int) error {
	tx := &types.Transaction{
		ID: "e17-tx", Client: 3, Kind: types.TxCross,
		Shards: []types.ShardID{0, 1},
		Ops: []types.Op{
			{Code: types.OpAdd, Key: "account-a", Delta: 5},
			{Code: types.OpTransfer, Key: "account-a", Key2: "account-b", Delta: 2},
		},
		Reads: types.ReadList{
			{Key: "account-a", Ver: types.Version{Block: 7, Tx: 2}},
			{Key: "account-b", Ver: types.Version{Block: 7, Tx: 3}},
			{Key: "account-c"},
		},
		Writes: types.WriteList{
			{Key: "account-a", Value: []byte("3")},
			{Key: "account-b", Value: []byte("9")},
		},
	}
	partial := quorumcert.Partial{Signer: 2, R: big.NewInt(1 << 40), S: big.NewInt(99)}
	cert := quorumcert.QuorumCert{
		Statement: quorumcert.Statement{Domain: "pbft/prepare", View: 3, Seq: 17,
			Digest: types.HashBytes([]byte("e17"))},
		Bitmap: []uint64{0b1011},
		R:      big.NewInt(12345), S: big.NewInt(67890),
	}
	wire.Intern(cert.Statement.Domain)

	e := wire.GetEncoder()
	defer wire.PutEncoder(e)

	type frameCase struct {
		name    string
		enc     func()
		dec     func() error
		gateDec bool // decode-into must also be allocation-free
	}
	txScratch := wire.AcquireTx()
	defer wire.ReleaseTx(txScratch)
	var partialScratch quorumcert.Partial
	var certScratch quorumcert.QuorumCert
	var frame []byte
	cases := []frameCase{
		{"tx", func() { wire.TxCodec.EncodeFrame(e, &tx) },
			func() error { return wire.TxCodec.DecodeFrameInto(frame, &txScratch) }, false},
		{"qc-partial", func() { quorumcert.PartialCodec.EncodeFrame(e, &partial) },
			func() error { return quorumcert.PartialCodec.DecodeFrameInto(frame, &partialScratch) }, true},
		{"qc-cert", func() { quorumcert.CertCodec.EncodeFrame(e, &cert) },
			func() error { return quorumcert.CertCodec.DecodeFrameInto(frame, &certScratch) }, true},
	}

	for _, c := range cases {
		e.Reset()
		c.enc() // warm the pooled buffer
		frame = append([]byte(nil), e.Frame()...)
		if err := c.dec(); err != nil {
			return fmt.Errorf("E17 %s: decode: %w", c.name, err)
		}

		encAllocs := testing.AllocsPerRun(200, func() {
			e.Reset()
			c.enc()
		})
		decAllocs := testing.AllocsPerRun(200, func() {
			if err := c.dec(); err != nil {
				panic(err)
			}
		})
		start := time.Now()
		for i := 0; i < iters; i++ {
			e.Reset()
			c.enc()
		}
		encNs := time.Since(start) / time.Duration(iters)
		start = time.Now()
		for i := 0; i < iters; i++ {
			if err := c.dec(); err != nil {
				return fmt.Errorf("E17 %s: decode: %w", c.name, err)
			}
		}
		decNs := time.Since(start) / time.Duration(iters)

		tbl.AddRow("frame", c.name, fmt.Sprintf("%d B/frame", len(frame)),
			fmt.Sprintf("enc %v, %.0f allocs; dec %v, %.0f allocs", encNs, encAllocs, decNs, decAllocs))
		if encAllocs != 0 {
			return fmt.Errorf("E17 %s: steady-state encode allocates %.1f/op, want 0", c.name, encAllocs)
		}
		if c.gateDec && decAllocs != 0 {
			return fmt.Errorf("E17 %s: steady-state decode-into allocates %.1f/op, want 0", c.name, decAllocs)
		}
	}
	return nil
}

// e17BytesPerMsg runs a short wire-mode cluster per protocol and reports
// the average serialized payload size.
func e17BytesPerMsg(tbl *Table, txs int) error {
	for _, p := range []core.Protocol{core.PBFT, core.Raft, core.Paxos,
		core.Tendermint, core.HotStuff, core.IBFT} {
		cfg := core.Config{Nodes: 4, Protocol: p, Arch: core.OX, BlockSize: 8,
			WireCodec: true, Timeout: 300 * time.Millisecond}
		c, err := core.New(cfg)
		if err != nil {
			return fmt.Errorf("E17 %s: %w", p, err)
		}
		c.Start()
		for i := 0; i < txs; i++ {
			tx := &types.Transaction{ID: fmt.Sprintf("e17-%s-%d", p, i),
				Ops: []types.Op{{Code: types.OpAdd, Key: fmt.Sprintf("k%d", i%17), Delta: 1}}}
			if err := c.Submit(tx); err != nil {
				c.Stop()
				return fmt.Errorf("E17 %s: %w", p, err)
			}
		}
		c.Flush()
		ok := c.Await(core.AwaitSpec{Txs: txs, Timeout: 60 * time.Second})
		verr := c.VerifyReplication()
		stats := c.Network().StatsSnapshot()
		c.Stop()
		if !ok {
			return fmt.Errorf("E17 %s: cluster stalled", p)
		}
		if verr != nil {
			return fmt.Errorf("E17 %s: %w", p, verr)
		}
		if n := stats.ByCause[network.DropCodec]; n != 0 {
			return fmt.Errorf("E17 %s: %d payloads failed the codec", p, n)
		}
		if stats.Sent == 0 || stats.WireBytesOut == 0 {
			return fmt.Errorf("E17 %s: no serialized traffic (sent=%d bytes=%d)", p, stats.Sent, stats.WireBytesOut)
		}
		tbl.AddRow("bytes/msg", fmt.Sprint(p),
			fmt.Sprintf("%.0f B/msg", float64(stats.WireBytesOut)/float64(stats.Sent)),
			fmt.Sprintf("msgs=%d bytes=%d", stats.Sent, stats.WireBytesOut))
	}
	return nil
}

// maxExecAllocs bounds SimulateList's allocations per transaction on
// e17Executor's payload: one encoded integer per read-modify-write op,
// nothing for the read and write sets themselves.
const maxExecAllocs = 2

// e17Executor measures allocs per simulated transaction on the shared
// executor and enforces the maxExecAllocs gate.
func e17Executor(tbl *Table) error {
	s := statedb.New()
	s.ApplyList(types.Version{Block: 1}, types.WriteList{
		{Key: "a", Value: statedb.EncodeInt(10)}, {Key: "b", Value: statedb.EncodeInt(20)}})
	ops := []types.Op{
		{Code: types.OpGet, Key: "a"},
		{Code: types.OpGet, Key: "b"},
		{Code: types.OpAdd, Key: "a", Delta: 1},
		{Code: types.OpAdd, Key: "b", Delta: 2},
		{Code: types.OpGet, Key: "c"},
	}
	sc := statedb.GetScratch()
	defer statedb.PutScratch(sc)
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := statedb.SimulateList(s, ops, sc); err != nil {
			panic(err)
		}
	})
	tbl.AddRow("executor", "allocs/tx", fmt.Sprintf("list %.1f", allocs),
		fmt.Sprintf("gate ≤ %d", maxExecAllocs))
	if allocs > maxExecAllocs {
		return fmt.Errorf("E17 executor: SimulateList allocates %.1f/tx, want ≤ %d", allocs, maxExecAllocs)
	}
	return nil
}

// e17Pipeline runs the identical in-memory PBFT/OX workload over both
// transports. Every run must replicate and, in wire mode, drop nothing
// at the codec. The "wire ≥ 0.75× struct" throughput gate is a
// wall-clock ratio, so it is enforced only at full scale, with a few
// attempts against noise on sub-second runs; a quick run reports it in
// the notes.
func e17Pipeline(tbl *Table, txs int, quick bool) error {
	runArm := func(wireMode bool) (time.Duration, error) {
		cfg := core.Config{Nodes: 4, Protocol: core.PBFT, Arch: core.OX,
			BlockSize: 8, WorkFactor: 800, WireCodec: wireMode,
			Timeout: 300 * time.Millisecond}
		c, err := core.New(cfg)
		if err != nil {
			return 0, err
		}
		c.Start()
		defer c.Stop()
		start := time.Now()
		for i := 0; i < txs; i++ {
			tx := &types.Transaction{ID: fmt.Sprintf("e17p-%d-%v", i, wireMode),
				Ops: []types.Op{{Code: types.OpAdd, Key: fmt.Sprintf("k%d", i%17), Delta: 1}}}
			if err := c.Submit(tx); err != nil {
				return 0, err
			}
		}
		c.Flush()
		if !c.Await(core.AwaitSpec{Txs: txs, Timeout: 60 * time.Second}) {
			return 0, fmt.Errorf("cluster processed %d/%d", c.Node(0).ProcessedTxs(), txs)
		}
		elapsed := time.Since(start)
		if err := c.VerifyReplication(); err != nil {
			return 0, err
		}
		if n := c.Network().StatsSnapshot().ByCause[network.DropCodec]; n != 0 {
			return 0, fmt.Errorf("%d payloads failed the codec", n)
		}
		return elapsed, nil
	}

	const attempts = 3
	var structD, wireD time.Duration
	for try := 1; ; try++ {
		var err error
		if structD, err = runArm(false); err != nil {
			return fmt.Errorf("E17 pipeline struct arm: %w", err)
		}
		if wireD, err = runArm(true); err != nil {
			return fmt.Errorf("E17 pipeline wire arm: %w", err)
		}
		// "Within noise": the wire arm may not lose more than 25% of the
		// struct arm's throughput.
		if quick || tps(txs, wireD) >= 0.75*tps(txs, structD) {
			break
		}
		if try == attempts {
			e17PipelineRows(tbl, txs, structD, wireD)
			return fmt.Errorf("E17 pipeline: wire arm %.0f tps lost more than 25%% vs struct arm %.0f tps in %d attempts",
				tps(txs, wireD), tps(txs, structD), attempts)
		}
	}
	e17PipelineRows(tbl, txs, structD, wireD)
	if quick {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf(
			"quick run: pipeline wire/struct throughput ratio %.2f is reported, not asserted (full scale asserts ≥ 0.75); replication and zero codec drops still are",
			tps(txs, wireD)/tps(txs, structD)))
	}
	return nil
}

func e17PipelineRows(tbl *Table, txs int, structD, wireD time.Duration) {
	tbl.AddRow("pipeline", "struct-pointer", fmt.Sprintf("%.0f tps", tps(txs, structD)),
		fmt.Sprintf("txs=%d elapsed=%v", txs, structD.Round(time.Millisecond)))
	tbl.AddRow("pipeline", "wire-codec", fmt.Sprintf("%.0f tps", tps(txs, wireD)),
		fmt.Sprintf("txs=%d elapsed=%v", txs, wireD.Round(time.Millisecond)))
}
