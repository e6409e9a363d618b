// Package cluster shards the backend across a fleet of merakid
// processes and merges their answers back together.
//
// The paper's analysis tier ingests telemetry from hundreds of
// thousands of APs; one collector process tops out at one machine's
// cores and disks. This package supplies the two halves of horizontal
// scale-out:
//
// Map is the deterministic shard map: consistent hashing (splitmix64
// premix + jump hash) of network IDs over N shards. Every party — the
// agents routing their reports, the daemons owning disjoint network
// slices, the router merging answers — computes the same assignment
// from the pair (networkID, N) with zero coordination, the same trick
// the seeded RNG tree uses to keep the parallel pipeline deterministic.
// Jump hash makes resharding cheap: growing N to N+1 moves only
// ~1/(N+1) of the networks (see OPERATIONS.md for the rebalance
// runbook).
//
// Router is the scatter-gather coordinator: it fans a query across
// every shard's query port concurrently, with a per-shard deadline and
// jittered capped retries, and degrades gracefully — a down shard
// yields a per-shard error while the others' data still comes back,
// flagged Degraded so the caller knows the answer is partial.
// MergedStore/MergedDigest pull each live shard's binary snapshot and
// fold them through backend.Store.Merge; because shards own disjoint
// networks (hence disjoint serials and client MACs), the merged digest
// of a healthy cluster is byte-identical to the digest a single
// daemon fed the same reports would produce — the equivalence the
// cluster tests and `make cluster-smoke` pin across seeds and wire
// versions.
package cluster
