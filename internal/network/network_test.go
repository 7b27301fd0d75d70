package network

import (
	"testing"
	"time"

	"permchain/internal/types"
)

func recvOne(t *testing.T, e *Endpoint) Message {
	t.Helper()
	select {
	case m := <-e.Inbox():
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func expectSilence(t *testing.T, e *Endpoint, d time.Duration) {
	t.Helper()
	select {
	case m := <-e.Inbox():
		t.Fatalf("unexpected message %+v", m)
	case <-time.After(d):
	}
}

func TestSendDeliver(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	a.Send(1, "ping", 42)
	m := recvOne(t, b)
	if m.From != 0 || m.To != 1 || m.Type != "ping" || m.Payload.(int) != 42 {
		t.Fatalf("got %+v", m)
	}
	st := n.StatsSnapshot()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.ByType["ping"] != 1 {
		t.Fatalf("ByType = %v", st.ByType)
	}
}

// TestPayloadIsolation pins the copy semantics of serialized transport:
// each receiver decodes its own payload, so neither the sender reusing
// its buffer nor one receiver mutating what it got can reach another.
func TestPayloadIsolation(t *testing.T) {
	n := New()
	a := n.Join(0)
	r1 := n.Join(1)
	r2 := n.Join(2)
	buf := []byte("original")
	a.Multicast([]types.NodeID{1, 2}, "blob", buf)
	copy(buf, "SENDER!!")
	got1 := recvOne(t, r1).Payload.([]byte)
	copy(got1, "RECVR-1!")
	if got2 := recvOne(t, r2).Payload.([]byte); string(got2) != "original" {
		t.Fatalf("receiver 2 got %q, want %q", got2, "original")
	}
}

// TestUnregisteredPayloadDropped: a payload type with no codec never
// reaches the receiver; it is lost with cause DropCodec.
func TestUnregisteredPayloadDropped(t *testing.T) {
	type unregistered struct{ X int }
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	a.Send(1, "x", unregistered{X: 1})
	expectSilence(t, b, 50*time.Millisecond)
	st := n.StatsSnapshot()
	if st.Delivered != 0 || st.Dropped != 1 || st.ByCause[DropCodec] != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWireByteCounters(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	a.Send(1, "ping", 42)
	recvOne(t, b)
	if st := n.StatsSnapshot(); st.WireBytesOut == 0 || st.WireBytesIn == 0 {
		t.Fatalf("wire bytes out=%d in=%d, want both > 0", st.WireBytesOut, st.WireBytesIn)
	}
}

func TestJoinIdempotent(t *testing.T) {
	n := New()
	if n.Join(3) != n.Join(3) {
		t.Fatal("Join returned different endpoints")
	}
	if len(n.Nodes()) != 1 {
		t.Fatal("node counted twice")
	}
}

func TestBroadcastExcludesSelf(t *testing.T) {
	n := New()
	eps := make([]*Endpoint, 4)
	for i := range eps {
		eps[i] = n.Join(types.NodeID(i))
	}
	eps[0].Broadcast("hi", nil)
	for i := 1; i < 4; i++ {
		recvOne(t, eps[i])
	}
	expectSilence(t, eps[0], 50*time.Millisecond)
}

func TestUnknownDestinationDropped(t *testing.T) {
	n := New()
	a := n.Join(0)
	a.Send(9, "x", nil)
	st := n.StatsSnapshot()
	if st.Dropped != 1 || st.ByCause[DropUnknown] != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDropRate(t *testing.T) {
	n := New(WithDropRate(1.0), WithSeed(7))
	a := n.Join(0)
	b := n.Join(1)
	for i := 0; i < 10; i++ {
		a.Send(1, "x", i)
	}
	expectSilence(t, b, 50*time.Millisecond)
	st := n.StatsSnapshot()
	if st.Dropped != 10 || st.ByCause[DropRate] != 10 {
		t.Fatalf("stats %+v", st)
	}
	// The dial is adjustable at runtime.
	n.SetDropRate(0)
	a.Send(1, "x", nil)
	recvOne(t, b)
}

func TestLatencyDelaysDelivery(t *testing.T) {
	const d = 60 * time.Millisecond
	n := New(WithUniformLatency(d))
	a := n.Join(0)
	b := n.Join(1)
	start := time.Now()
	a.Send(1, "x", nil)
	recvOne(t, b)
	if el := time.Since(start); el < d {
		t.Fatalf("delivered after %v, want >= %v", el, d)
	}
}

func TestPerLinkLatency(t *testing.T) {
	n := New(WithLatency(func(from, to types.NodeID) time.Duration {
		if from == 0 && to == 2 {
			return 80 * time.Millisecond
		}
		return 0
	}))
	a := n.Join(0)
	fast := n.Join(1)
	slow := n.Join(2)
	start := time.Now()
	a.Send(1, "x", nil)
	a.Send(2, "x", nil)
	recvOne(t, fast)
	if time.Since(start) > 40*time.Millisecond {
		t.Fatal("fast link was slow")
	}
	recvOne(t, slow)
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("slow link was fast")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	n.Partition([]types.NodeID{0}, []types.NodeID{1})
	a.Send(1, "x", nil)
	expectSilence(t, b, 50*time.Millisecond)
	if st := n.StatsSnapshot(); st.ByCause[DropPartition] != 1 {
		t.Fatalf("stats %+v", st)
	}
	n.Heal()
	a.Send(1, "x", nil)
	recvOne(t, b)
}

func TestCrashMutesBothDirections(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	n.Crash(1)
	if !n.IsCrashed(1) {
		t.Fatal("crash not recorded")
	}
	a.Send(1, "x", nil) // inbound to crashed node
	b.Send(0, "x", nil) // outbound from crashed node
	expectSilence(t, b, 30*time.Millisecond)
	expectSilence(t, a, 30*time.Millisecond)
	st := n.StatsSnapshot()
	if st.Dropped != 2 || st.ByCause[DropCrash] != 2 {
		t.Fatalf("stats %+v", st)
	}
	n.Restore(1)
	if n.IsCrashed(1) {
		t.Fatal("restore not recorded")
	}
	a.Send(1, "x", nil)
	recvOne(t, b)
}

func TestCrashDropsDelayedDelivery(t *testing.T) {
	// A message already in flight when the destination crashes must not be
	// delivered: crash semantics are checked at delivery time too.
	n := New(WithUniformLatency(40 * time.Millisecond))
	a := n.Join(0)
	b := n.Join(1)
	a.Send(1, "x", nil)
	n.Crash(1)
	expectSilence(t, b, 80*time.Millisecond)
	if st := n.StatsSnapshot(); st.ByCause[DropCrash] != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRejoinFreshInbox(t *testing.T) {
	n := New()
	a := n.Join(0)
	old := n.Join(1)
	a.Send(1, "stale", nil) // sits in the old incarnation's inbox
	n.Crash(1)
	fresh := n.Rejoin(1)
	n.Restore(1)
	if n.Join(1) != fresh {
		t.Fatal("Join after Rejoin returned a stale endpoint")
	}
	a.Send(1, "new", nil)
	if m := recvOne(t, fresh); m.Type != "new" {
		t.Fatalf("fresh inbox got %+v", m)
	}
	// The pre-crash message stayed with the dead incarnation.
	if m := <-old.Inbox(); m.Type != "stale" {
		t.Fatalf("old inbox got %+v", m)
	}
	expectSilence(t, fresh, 30*time.Millisecond)
}

func TestPartitionWithinGroupDelivers(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	c := n.Join(2)
	n.Partition([]types.NodeID{0, 1}, []types.NodeID{2})
	a.Send(1, "x", nil)
	recvOne(t, b)
	a.Send(2, "x", nil)
	expectSilence(t, c, 50*time.Millisecond)
}

func TestByzantineEquivocation(t *testing.T) {
	n := New()
	byz := n.Join(0)
	b := n.Join(1)
	c := n.Join(2)
	// Node 0 tells 1 "yes" and 2 "no" regardless of what it tried to send.
	n.SetFilter(0, func(m Message) []Message {
		return []Message{
			{From: 0, To: 1, Type: m.Type, Payload: "yes"},
			{From: 0, To: 2, Type: m.Type, Payload: "no"},
		}
	})
	byz.Send(1, "vote", "yes")
	if m := recvOne(t, b); m.Payload.(string) != "yes" {
		t.Fatalf("b got %v", m.Payload)
	}
	if m := recvOne(t, c); m.Payload.(string) != "no" {
		t.Fatalf("c got %v", m.Payload)
	}
}

func TestFilterCannotForgeSender(t *testing.T) {
	n := New()
	byz := n.Join(0)
	b := n.Join(1)
	n.SetFilter(0, func(m Message) []Message {
		m.From = 7 // attempt to impersonate node 7
		return []Message{m}
	})
	byz.Send(1, "x", nil)
	if m := recvOne(t, b); m.From != 0 {
		t.Fatalf("forged sender %v accepted", m.From)
	}
}

func TestFilterSilence(t *testing.T) {
	n := New()
	byz := n.Join(0)
	b := n.Join(1)
	n.SetFilter(0, func(Message) []Message { return nil })
	byz.Send(1, "x", nil)
	expectSilence(t, b, 50*time.Millisecond)
	// Removing the filter restores traffic.
	n.SetFilter(0, nil)
	byz.Send(1, "x", nil)
	recvOne(t, b)
}

func TestAttestationForbidsFilters(t *testing.T) {
	n := New()
	n.Join(0)
	n.Attest(0)
	if !n.IsAttested(0) {
		t.Fatal("attestation not recorded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetFilter on attested node did not panic")
			}
		}()
		n.SetFilter(0, func(m Message) []Message { return []Message{m} })
	}()
	// And the reverse: filtered nodes cannot be attested.
	n.Join(1)
	n.SetFilter(1, func(m Message) []Message { return []Message{m} })
	defer func() {
		if recover() == nil {
			t.Error("Attest on filtered node did not panic")
		}
	}()
	n.Attest(1)
}

func TestCloseDropsTraffic(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	n.Close()
	a.Send(1, "x", nil)
	expectSilence(t, b, 50*time.Millisecond)
}

func TestResetStats(t *testing.T) {
	n := New()
	a := n.Join(0)
	n.Join(1)
	a.Send(1, "x", nil)
	n.ResetStats()
	if st := n.StatsSnapshot(); st.Sent != 0 || len(st.ByType) != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSetLatencyAtRuntime(t *testing.T) {
	n := New()
	a := n.Join(0)
	b := n.Join(1)
	a.Send(1, "x", nil)
	recvOne(t, b) // instant by default
	n.SetLatency(func(_, _ types.NodeID) time.Duration { return 60 * time.Millisecond })
	start := time.Now()
	a.Send(1, "x", nil)
	recvOne(t, b)
	if time.Since(start) < 60*time.Millisecond {
		t.Fatal("runtime latency not applied")
	}
}

func TestMulticast(t *testing.T) {
	n := New()
	eps := make([]*Endpoint, 4)
	for i := range eps {
		eps[i] = n.Join(types.NodeID(i))
	}
	// Multicast to {0,1,2} from 0: only 1 and 2 receive.
	eps[0].Multicast([]types.NodeID{0, 1, 2}, "m", 7)
	recvOne(t, eps[1])
	recvOne(t, eps[2])
	expectSilence(t, eps[3], 50*time.Millisecond)
	expectSilence(t, eps[0], 50*time.Millisecond)
}
