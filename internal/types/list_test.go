package types

import "testing"

func TestReadListRoundTrip(t *testing.T) {
	list := ReadList{{Key: "b", Ver: Version{Block: 2, Tx: 1}}, {Key: "a", Ver: Version{Block: 1}}, {Key: "c"}}
	list.Sort()
	for i := 1; i < len(list); i++ {
		if list[i-1].Key >= list[i].Key {
			t.Fatalf("list not sorted: %v", list)
		}
	}
	if ver, ok := list.Get("b"); !ok || ver != (Version{Block: 2, Tx: 1}) {
		t.Fatalf("Get(b) = %v %v", ver, ok)
	}
	if ver, ok := list.Get("c"); !ok || ver != (Version{}) {
		t.Fatalf("Get(c) = %v %v", ver, ok)
	}
	if _, ok := list.Get("zz"); ok {
		t.Fatal("Get(zz) found a ghost")
	}
	if _, ok := ReadList(nil).Get("a"); ok {
		t.Fatal("Get on a nil list found a ghost")
	}
}

func TestWriteListRoundTrip(t *testing.T) {
	list := WriteList{{Key: "y", Value: []byte("2")}, {Key: "x", Value: []byte("1")}, {Key: "z"}}
	list.Sort()
	for i := 1; i < len(list); i++ {
		if list[i-1].Key >= list[i].Key {
			t.Fatalf("list not sorted: %v", list)
		}
	}
	if v, ok := list.Get("x"); !ok || string(v) != "1" {
		t.Fatalf("Get(x) = %q %v", v, ok)
	}
	if v, ok := list.Get("z"); !ok || v != nil {
		t.Fatalf("Get(z) = %q %v", v, ok)
	}
	if _, ok := list.Get("w"); ok {
		t.Fatal("Get(w) found a ghost")
	}
	if _, ok := WriteList(nil).Get("x"); ok {
		t.Fatal("Get on a nil list found a ghost")
	}
}

func TestListSortIsAllocFree(t *testing.T) {
	r := ReadList{{Key: "c"}, {Key: "a"}, {Key: "b"}}
	w := WriteList{{Key: "c"}, {Key: "a"}, {Key: "b"}}
	if n := testing.AllocsPerRun(100, func() { r.Sort(); w.Sort() }); n != 0 {
		t.Fatalf("Sort allocates %.1f/op, want 0", n)
	}
}
