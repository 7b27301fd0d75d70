#!/bin/sh
# Repo verification: static analysis plus the full test suite under the
# race detector. This is the tier-1 gate (see ROADMAP.md) — run it before
# every commit. The chaos matrix (chaoscheck_test.go) and all protocol
# recovery tests are part of the suite, so a green run covers the §2.2
# safety/liveness assertions too. The race detector is mandatory for
# changes touching internal/consensus, internal/network, internal/chaos,
# internal/confidential, internal/mempool, internal/quorumcert,
# internal/ops, internal/sharding, internal/wire, internal/arch,
# internal/statedb or internal/core — everything there is
# multi-goroutine by construction (consensus.Loop's Start and Stop may race
# from any goroutine; OpenChain recovers a chain's nodes concurrently, one
# goroutine each; the mempool's capacity/dedup invariants are asserted
# under concurrent submitters; the ops server is hammered concurrently
# with a committing cluster; quorumcert key
# provisioning is lazy under a shared lock; the sharding suite runs
# concurrent overlapping cross-shard 2PCs and kill-9-mid-commit recovery;
# the wire codec's registry, intern table and buffer pools are shared by
# every sending and receiving goroutine; XOV endorsers draw pooled
# executor scratches concurrently and OXII and FastFabric execute and
# validate against the lock-striped store from parallel workers).
set -eu

cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

# The E18 benchmark is its own module (benchmark/go.mod), so ./... above
# does not reach it; vet and test it here so removing a core API cannot
# silently break it. Never `go build` inside benchmark/: that overwrites
# the tracked benchmark/benchmark binary.
echo "==> (cd benchmark && go vet ./... && go test -short ./...)"
(cd benchmark && go vet ./... && go test -short ./...)

echo "verify: OK"
