package types

import (
	"slices"
	"strings"
)

// ReadList and WriteList are a transaction's read and write sets, in the
// form Fabric's rwset uses: key-sorted {key, version} and {key, value}
// records. Slices rather than maps let the executor record them into
// reusable scratch buffers (see statedb.ExecScratch) and let the wire
// codec encode them without sorting.
//
// A list is canonical when sorted by key with unique keys; the executors
// guarantee that before handing a list to validation or commit, and the
// wire decoder rejects any other spelling.

// ReadItem is one entry of a ReadList: a key and the version observed.
type ReadItem struct {
	Key string
	Ver Version
}

// ReadList is a slice-based read set, sorted by key when canonical.
type ReadList []ReadItem

// Sort orders the list by key.
func (r ReadList) Sort() {
	slices.SortFunc(r, func(a, b ReadItem) int { return strings.Compare(a.Key, b.Key) })
}

// Get returns the version recorded for key. The list must be sorted.
func (r ReadList) Get(key string) (Version, bool) {
	i, ok := slices.BinarySearchFunc(r, key, func(it ReadItem, k string) int {
		return strings.Compare(it.Key, k)
	})
	if !ok {
		return Version{}, false
	}
	return r[i].Ver, true
}

// WriteItem is one entry of a WriteList: a key and its new value.
type WriteItem struct {
	Key   string
	Value []byte
}

// WriteList is a slice-based write set, sorted by key when canonical.
type WriteList []WriteItem

// Sort orders the list by key.
func (w WriteList) Sort() {
	slices.SortFunc(w, func(a, b WriteItem) int { return strings.Compare(a.Key, b.Key) })
}

// Get returns the value recorded for key. The list must be sorted.
func (w WriteList) Get(key string) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(w, key, func(it WriteItem, k string) int {
		return strings.Compare(it.Key, k)
	})
	if !ok {
		return nil, false
	}
	return w[i].Value, true
}
