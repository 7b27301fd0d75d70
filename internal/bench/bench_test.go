package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", Claim: "things hold",
		Columns: []string{"a", "longer-column"},
	}
	tbl.AddRow("x", 3.14159)
	tbl.AddRow(42, time.Millisecond)
	tbl.Notes = append(tbl.Notes, "a note")
	out := tbl.String()
	for _, want := range []string{"EX — demo", "paper claim: things hold", "longer-column", "3.1", "1ms", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestE1Quick(t *testing.T) {
	tbl, err := E1Figure1(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "true" || row[4] != "true" {
			t.Fatalf("replication violated: %v", row)
		}
	}
	if !strings.Contains(strings.Join(tbl.Notes, " "), "holds") {
		t.Fatalf("notes: %v", tbl.Notes)
	}
}

func TestE2Quick(t *testing.T) {
	tbl, err := E2Architectures(400, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 skews × 3 archs.
	if len(tbl.Rows) != 12 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Shape check: at the highest skew, XOV aborts while OXII does not.
	var oxiiAborts, xovAborts string
	for _, row := range tbl.Rows {
		if row[0] == "1.5" && row[2] == "OXII" {
			oxiiAborts = row[6]
		}
		if row[0] == "1.5" && row[2] == "XOV" {
			xovAborts = row[6]
		}
	}
	if oxiiAborts != "0" {
		t.Fatalf("OXII aborted %s txs", oxiiAborts)
	}
	if xovAborts == "0" {
		t.Fatal("XOV aborted nothing under heavy contention")
	}
	t.Log("\n" + tbl.String())
}

func TestE3Quick(t *testing.T) {
	tbl, err := E3FabricFamily(400, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row
	}
	atoiF := func(s string) int {
		n := 0
		for _, c := range s {
			if c < '0' || c > '9' {
				break
			}
			n = n*10 + int(c-'0')
		}
		return n
	}
	// Reordering reduces aborts; Sharp never aborts more than Fabric++.
	if atoiF(byName["Fabric++"][3]) > atoiF(byName["XOV"][3]) {
		t.Fatalf("Fabric++ aborted more than vanilla: %v vs %v", byName["Fabric++"][3], byName["XOV"][3])
	}
	if atoiF(byName["FabricSharp"][3]) > atoiF(byName["Fabric++"][3]) {
		t.Fatal("FabricSharp aborted more than Fabric++")
	}
	// XOX ends with zero net aborts (all re-executed or failed).
	if byName["XOX"][3] != "0" {
		t.Fatalf("XOX left aborts: %v", byName["XOX"][3])
	}
	t.Log("\n" + tbl.String())
}

func TestE4Quick(t *testing.T) {
	tbl, err := E4Confidentiality(30, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Caper leaks zero of e2's internal txs into e1.
	if tbl.Rows[0][1] != "0 txs" {
		t.Fatalf("caper leaked: %v", tbl.Rows[0])
	}
	t.Log("\n" + tbl.String())
}

func TestE5Quick(t *testing.T) {
	tbl, err := E5Verifiability(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	t.Log("\n" + tbl.String())
}

func TestE6Quick(t *testing.T) {
	tbl, err := E6ShardingScaling(30, []int{2}, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	// 1 ResilientDB row + 2 sharded rows per (shardCount, crossFrac).
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

func TestE7Quick(t *testing.T) {
	tbl, err := E7CrossShardLatency(2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

func TestE8Quick(t *testing.T) {
	tbl, err := E8ConsensusProtocols(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] == "0.0" {
			t.Fatalf("protocol %s decided nothing", row[0])
		}
	}
	t.Log("\n" + tbl.String())
}

func TestE9Quick(t *testing.T) {
	tbl, err := E9Ablations(120)
	if err != nil {
		t.Fatal(err)
	}
	// 4 batching + 2 signature + 2 committee rows.
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	// The attested committee is 2f+1 = 3 replicas for f = 1, and it
	// decides every value it is given.
	att := tbl.Rows[6]
	if att[1] != "attested committee (2f+1 = 3 nodes)" || att[3] != "3 nodes per committee, same f=1" {
		t.Fatalf("attested row = %v", att)
	}
	if tps, err := strconv.ParseFloat(att[2], 64); err != nil || tps <= 0 {
		t.Fatalf("attested committee decided nothing: %v", att)
	}
	t.Log("\n" + tbl.String())
}

func TestE12Quick(t *testing.T) {
	tbl, err := E12Pipeline(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// One row per fsync configuration; E12Pipeline fails unless each
	// row's witnesses hold.
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

func TestE13Quick(t *testing.T) {
	tbl, err := E13WorldState(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// 2 hash rows + 2 store arms × 4 worker counts.
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

func TestE10Quick(t *testing.T) {
	tbl, err := E10Chaos(true)
	if err != nil {
		t.Fatal(err)
	}
	// 6 protocols × 3 quick schedules (crash-recovery, partition-heal, full-restart).
	if len(tbl.Rows) != 18 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	for _, row := range tbl.Rows {
		if row[7] != "held" || row[8] != "ok" {
			t.Fatalf("chaos row failed: %v", row)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestE14Quick(t *testing.T) {
	tbl, err := E14Overload(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// 1 ramp row + 4 overload arms.
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

// TestE15Quick pins the quorum-certificate subsystem's headline numbers:
// aggregated PBFT must pay strictly fewer messages per commit than counted
// PBFT once the cluster is large (n=32), and a 64-replica HotStuff cluster
// with real Schnorr shares must reach committed height.
func TestE15Quick(t *testing.T) {
	tbl, err := E15QuorumScaling(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// 2 protocols × 2 modes × 2 cluster sizes + the signed 64-replica arm.
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	msgsPer := func(proto, mode string, n string) float64 {
		t.Helper()
		for _, row := range tbl.Rows {
			if row[0] == proto && row[1] == mode && row[2] == n {
				v, err := strconv.ParseFloat(row[5], 64)
				if err != nil {
					t.Fatalf("row %v: msgs/commit %q: %v", row, row[5], err)
				}
				return v
			}
		}
		t.Fatalf("no row for %s/%s n=%s\n%s", proto, mode, n, tbl)
		return 0
	}
	counted := msgsPer("pbft", "counted", "32")
	aggregated := msgsPer("pbft", "aggregated", "32")
	if aggregated >= counted {
		t.Fatalf("aggregated PBFT at n=32 pays %.1f msgs/commit, counted pays %.1f — aggregation must be strictly cheaper\n%s",
			aggregated, counted, tbl)
	}
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "hotstuff" && row[1] == "aggregated" && row[2] == "64" {
			found = true
			if row[3] != "schnorr" {
				t.Fatalf("64-replica hotstuff arm ran without real shares: %v", row)
			}
			if row[4] != "3/3" {
				t.Fatalf("64-replica hotstuff arm decided %s, want 3/3\n%s", row[4], tbl)
			}
		}
	}
	if !found {
		t.Fatalf("no 64-replica aggregated hotstuff arm\n%s", tbl)
	}
	t.Log("\n" + tbl.String())
}

// TestE17Quick is the tier-1 gate on the wire codec and allocation-free
// hot path. E17WireCodec itself errors when any hard gate fails: a
// steady-state encode (tx with read/write sets, partial, cert) or
// decode-into (partial, cert) that allocates, a codec drop or stall in
// any protocol's cluster, or a SimulateList that makes more than
// maxExecAllocs allocs/tx. No gate is wall-clock.
func TestE17Quick(t *testing.T) {
	tbl, err := E17WireCodec(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// 3 frame rows + 6 bytes/msg rows + 1 executor row.
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	allocs := -1.0
	for _, row := range tbl.Rows {
		if row[0] == "executor" {
			if _, err := fmt.Sscanf(row[2], "list %f", &allocs); err != nil {
				t.Fatalf("executor row %v: %v", row, err)
			}
		}
	}
	if allocs < 0 || allocs > maxExecAllocs {
		t.Fatalf("executor allocs/tx %.1f, want 0..%d\n%s", allocs, maxExecAllocs, tbl)
	}
	// The height-engine protocols' rows pin their frame layouts: the
	// quick workload's message count and bytes are deterministic.
	want := map[string]string{"ibft": "msgs=240 bytes=52818", "tendermint": "msgs=240 bytes=54978"}
	for _, row := range tbl.Rows {
		if w, ok := want[row[1]]; ok && row[0] == "bytes/msg" {
			if row[3] != w {
				t.Fatalf("%s bytes/msg row %q, want %q\n%s", row[1], row[3], w, tbl)
			}
			delete(want, row[1])
		}
	}
	if len(want) != 0 {
		t.Fatalf("no bytes/msg rows for %v\n%s", want, tbl)
	}
	t.Log("\n" + tbl.String())
}

// TestE16Quick is the tier-1 gate on the sharded capstone: aggregate
// throughput must strictly increase from 1 to 4 shards at 0% cross-shard
// traffic, and the safety arm (participant crash mid-2PC, recovery from
// WAL decision records) must hold the all-or-nothing invariant with zero
// subset commits and zero lost locks — E16HorizontalScaling returns an
// error otherwise.
func TestE16Quick(t *testing.T) {
	tbl, err := E16HorizontalScaling(true)
	if err != nil {
		t.Fatalf("%v\n%s", err, tbl)
	}
	// (1 + 2×2) scaling rows + 1 safety row.
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d\n%s", len(tbl.Rows), tbl)
	}
	tpsAt := func(shards string) float64 {
		t.Helper()
		for _, row := range tbl.Rows {
			if row[0] == "scaling" && row[1] == shards && row[2] == "0%" {
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					t.Fatalf("row %v: tps %q: %v", row, row[3], err)
				}
				return v
			}
		}
		t.Fatalf("no 0%% scaling row for %s shards\n%s", shards, tbl)
		return 0
	}
	t1, t2, t4 := tpsAt("1"), tpsAt("2"), tpsAt("4")
	if !(t4 > t2 && t2 > t1) {
		t.Fatalf("aggregate tps not strictly increasing with shards at 0%% cross: 1→%.1f 2→%.1f 4→%.1f\n%s", t1, t2, t4, tbl)
	}
	t.Log("\n" + tbl.String())
}
