package main

import (
	"time"

	"permchain/internal/core"
	"permchain/internal/mempool"
	"permchain/internal/obs"
	"permchain/internal/store"
)

// The configuration every workload shares is the one a deployment would
// run: all three of mempool, wire-codec transport and fsync-always store
// at once, signatures on, pipelined commit. Injected message delay is 0
// (in-process bus), so latency here is processor + fsync time, not
// network time.
const (
	replicas      = 4
	blockSize     = 64
	flushEvery    = 20 * time.Millisecond
	timeout       = time.Second
	mempoolCap    = 4096
	snapshotEvery = 64
	injectedDelay = time.Duration(0)

	warmupTxs    = 2000 // enough that set-up time is work, not a count of 20 ms flush ticks
	peakClients  = 256  // closed-loop outstanding transactions
	settleWait   = 30 * time.Second
	shardKeysPer = 16384
)

// mix is the shape of one workload's transactions.
type mix struct {
	adds, puts, gets int
	keys             int     // key-space size (per shard when sharded)
	hotKeys          int     // size of the hot set, 0 = uniform
	hotShare         float64 // share of accesses that go to the hot set
	valueBytes       int     // OpPut value size
	shards           int     // 0 = single chain
	crossShare       float64 // share of two-shard transactions
}

// workload is one named traffic mix against one chain shape. Rates are
// constants, never adapted to the host, so the parent commit and a change
// always get identical load.
type workload struct {
	name       string
	why        string
	protocol   core.Protocol
	arch       core.Architecture
	workFactor int
	steadyRate float64 // open-loop tx/s
	mix        mix
}

var workloads = []workload{
	{
		name:     "pbft-ox-uniform",
		why:      "BFT baseline: consensus, ed25519, network and wire do most of the work; execute and store do little.",
		protocol: core.PBFT, arch: core.OX, steadyRate: 8000,
		mix: mix{adds: 2, gets: 1, keys: 8192},
	},
	{
		name:     "raft-oxii-heavy",
		why:      "Ordering is cheap and unsigned, so arch, statedb, ledger, store and the tx codec dominate; a consensus or crypto change must show no change here.",
		protocol: core.Raft, arch: core.OXII, workFactor: 20, steadyRate: 2000,
		mix: mix{adds: 4, puts: 2, gets: 2, keys: 16384, valueBytes: 256},
	},
	{
		name:     "pbft-xov-hotset",
		why:      "Same arch/statedb layers on the optimistic map-based path (endorse at submit, validate after order) with MVCC conflicts on a hot set.",
		protocol: core.PBFT, arch: core.XOV, steadyRate: 6000,
		mix: mix{adds: 2, gets: 1, keys: 10000, hotKeys: 1000, hotShare: 0.30},
	},
	{
		name:     "pbft-ox-sharded-2pc",
		why:      "Only workload that runs shardcore, locktable and durable 2PC decision records; the intra-shard txs beside them bound what 2PC costs.",
		protocol: core.PBFT, arch: core.OX, steadyRate: 4000,
		mix: mix{adds: 2, keys: shardKeysPer, shards: 2, crossShare: 0.20},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// chainConfig is the common production configuration for w, persisting
// under dir. o is nil in the measured run and obs.New() in the traced one.
func chainConfig(w workload, dir string, o *obs.Obs) core.Config {
	cfg := core.Config{
		Nodes:      replicas,
		Protocol:   w.protocol,
		Arch:       w.arch,
		BlockSize:  blockSize,
		FlushEvery: flushEvery,
		Timeout:    timeout,
		WorkFactor: w.workFactor,
		WireCodec:  true,
		Mempool:    &mempool.Config{Capacity: mempoolCap},
		Store:      &store.Config{Dir: dir, Fsync: store.FsyncAlways, SnapshotEvery: snapshotEvery},
		Obs:        o,
	}
	if w.mix.shards > 0 {
		// IntraShardLatency stays 0: a positive value builds struct-mode
		// shard networks and fails construction with ErrWireModeMismatch
		// under WireCodec (README, Findings).
		cfg.Sharding = &core.ShardingConfig{Shards: w.mix.shards, Protocol: "sharper"}
	}
	return cfg
}
