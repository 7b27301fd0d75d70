package locktable

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"permchain/internal/types"
)

func TestTryLockAllOrNothing(t *testing.T) {
	lt := New(0)
	if err := lt.TryLock("t1", []string{"a", "b"}); err != nil {
		t.Fatalf("t1 lock: %v", err)
	}
	// t2 conflicts on b: nothing at all may be taken.
	if err := lt.TryLock("t2", []string{"c", "b"}); !errors.Is(err, ErrLocked) {
		t.Fatalf("want ErrLocked, got %v", err)
	}
	if _, held := lt.Holder("c"); held {
		t.Fatal("failed TryLock left a partial grant on c")
	}
	// Re-acquiring own keys is a no-op.
	if err := lt.TryLock("t1", []string{"a"}); err != nil {
		t.Fatalf("reacquire: %v", err)
	}
	lt.Unlock("t1")
	if lt.Count() != 0 {
		t.Fatalf("count after unlock = %d", lt.Count())
	}
}

func TestLockBlocksUntilReleased(t *testing.T) {
	lt := New(0)
	if err := lt.TryLock("t1", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lt.Lock("t2", []string{"k"}, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	lt.Unlock("t1")
	if err := <-got; err != nil {
		t.Fatalf("blocked lock after release: %v", err)
	}
	if h, _ := lt.Holder("k"); h != "t2" {
		t.Fatalf("holder = %q, want t2", h)
	}
}

func TestLockTimeout(t *testing.T) {
	lt := New(0)
	if err := lt.TryLock("t1", []string{"k"}); err != nil {
		t.Fatal(err)
	}
	err := lt.Lock("t2", []string{"k"}, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

// TestCoordinatorCrashLeaseExpiry is the regression test for the lock
// leak: a coordinator that acquires prepare-phase locks and then dies
// before deciding used to leave its entries in the table forever. With a
// lease TTL the entries lapse and the keys become grantable again.
func TestCoordinatorCrashLeaseExpiry(t *testing.T) {
	lt := New(time.Hour)
	now := time.Now()
	lt.SetClock(func() time.Time { return now })
	if err := lt.TryLock("crashed-coord", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := lt.TryLock("t2", []string{"a"}); !errors.Is(err, ErrLocked) {
		t.Fatalf("lease should still be live: %v", err)
	}
	// The coordinator crashes between prepare and decide: no Unlock, no
	// Refresh. Advance past the lease.
	now = now.Add(2 * time.Hour)
	if got := lt.Count(); got != 0 {
		t.Fatalf("lapsed leases still counted: %d", got)
	}
	if err := lt.TryLock("t2", []string{"a", "b"}); err != nil {
		t.Fatalf("lock after lease lapse: %v", err)
	}
}

// TestLockConflictThenRelease walks one table through conflict and
// release: the loser of an all-or-nothing conflict holds nothing, may
// still take disjoint keys, and gets the contested key once it is freed.
func TestLockConflictThenRelease(t *testing.T) {
	lt := New(0)
	if err := lt.TryLock("t1", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := lt.TryLock("t2", []string{"c", "a"}); !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v", err)
	}
	if lt.Count() != 2 {
		t.Fatalf("locks = %d (t2 must hold nothing)", lt.Count())
	}
	if err := lt.TryLock("t2", []string{"c"}); err != nil {
		t.Fatal(err)
	}
	lt.Unlock("t1")
	if lt.Count() != 1 {
		t.Fatalf("locks = %d after unlock", lt.Count())
	}
	if err := lt.TryLock("t2", []string{"a"}); err != nil {
		t.Fatal("released lock not acquirable")
	}
}

// TestCrashedLeaseLapsesRefreshedHolds mixes a crashed coordinator with
// a holder that in-doubt recovery keeps refreshing: only the orphaned
// lease lapses.
func TestCrashedLeaseLapsesRefreshedHolds(t *testing.T) {
	lt := New(time.Minute)
	now := time.Unix(1000, 0)
	lt.SetClock(func() time.Time { return now })
	if err := lt.TryLock("crashed-coord", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := lt.TryLock("recovering", []string{"z"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(40 * time.Second)
	lt.Refresh("recovering")
	now = now.Add(40 * time.Second) // crashed-coord's lease lapsed; recovering's did not
	if got := lt.Count(); got != 1 {
		t.Fatalf("live locks = %d, want 1 (orphaned lease must lapse)", got)
	}
	if err := lt.TryLock("t2", []string{"x", "y"}); err != nil {
		t.Fatalf("keys of crashed coordinator still unavailable: %v", err)
	}
	if err := lt.TryLock("t3", []string{"z"}); err == nil {
		t.Fatal("refreshed holder lost its lock")
	}
}

func TestRefreshExtendsLease(t *testing.T) {
	lt := New(time.Hour)
	now := time.Now()
	lt.SetClock(func() time.Time { return now })
	if err := lt.TryLock("t1", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(50 * time.Minute)
	lt.Refresh("t1") // in-doubt recovery re-asserts the holder
	now = now.Add(50 * time.Minute)
	if err := lt.TryLock("t2", []string{"a"}); !errors.Is(err, ErrLocked) {
		t.Fatalf("refreshed lease should still hold: %v", err)
	}
}

// TestOrderedAcquisitionNoDeadlock hammers two tables with transactions
// that need keys on both, always acquiring table 0 before table 1 —
// the discipline the cross-shard engine follows. Every acquisition must
// eventually succeed; a deadlock shows up as a timeout.
func TestOrderedAcquisitionNoDeadlock(t *testing.T) {
	tables := []*Table{New(0), New(0)}
	keysFor := func(sh, i int) []string {
		return []string{fmt.Sprintf("s%d/key%d", types.ShardID(sh), i%3)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				tx := fmt.Sprintf("t%d-%d", w, i)
				for sh := range tables { // ascending shard order
					if err := tables[sh].Lock(tx, keysFor(sh, w+i), 10*time.Second); err != nil {
						errs <- err
						return
					}
				}
				for sh := range tables {
					tables[sh].Unlock(tx)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("ordered acquisition failed: %v", err)
	}
	for sh, tbl := range tables {
		if tbl.Count() != 0 {
			t.Fatalf("table %d leaked %d locks", sh, tbl.Count())
		}
	}
}
