package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/backend"
)

// Live shard rebalancing. Growing a merakid cluster N→M shards moves
// ~1/(M) of the networks to new homes under the jump-hash map
// (map.go); this file is the coordinator that actually moves their
// data while the harvest keeps running, in five network-granular
// steps, each idempotent so an interrupted run re-converges:
//
//  1. discover — fan "networks" across the old topology; a network
//     migrates when the shard holding it is not its new-map home.
//  2. part — each source marks its moved networks as refusing
//     ingestion, so devices requeue instead of writing into a slice
//     already being copied. Parted state is WAL-durable on durable
//     shards.
//  3. extract+absorb — each (source, destination) group's slice is
//     exported with "extract" (a consistent per-network deep copy)
//     and pushed into the destination with "absorb" under a
//     deterministic per-pair token. Absorption is WAL-before-apply
//     and token-deduplicated: a destination SIGKILLed mid-migration
//     replays to exactly what it acknowledged, and re-pushing the
//     same token is a no-op.
//  4. verify — the digest of the moved slice re-extracted from the
//     destinations must equal the digest of what the sources
//     exported. On mismatch the absorbed copies are dropped, sources
//     un-parted, and the run fails without having destroyed anything.
//     (Full-topology digests cannot gate here: non-moved networks
//     keep ingesting mid-harvest.)
//  5. cut over — only after the verify gate do sources drop their
//     moved networks. Sources stay parted for the moved set, so
//     old-map agents that have not re-routed yet cannot resurrect a
//     network on its former home.
type Transfer struct {
	// Src indexes the old topology, Dst the new one.
	Src, Dst int
	// Networks is the sorted moved set for this pair.
	Networks []uint64
}

// RebalanceOptions tunes the coordinator. The zero value works for
// tests and small fleets.
type RebalanceOptions struct {
	// Token namespaces the migration: each (src,dst) pair absorbs
	// under "<token>.s<src>d<dst>". Re-running with the same token
	// skips already-absorbed slices (crash recovery); after a verified
	// failure and rollback, re-run with a fresh token. Empty defaults
	// to "rebalance".
	Token string
	// Timeout bounds each shard exchange (a slice push included).
	// Zero defaults to 30s.
	Timeout time.Duration
	// Retries / BackoffBase / BackoffMax follow Router semantics.
	Retries                 int
	BackoffBase, BackoffMax time.Duration
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// RebalanceReport is what a completed rebalance proved.
type RebalanceReport struct {
	Token                string
	OldShards, NewShards int
	Transfers            []Transfer
	// MovedNetworks counts networks that changed homes this run.
	MovedNetworks int
	// SliceDigest is the canonical digest of the moved slice — equal
	// on the source side and the destination side, that equality being
	// the cutover gate.
	SliceDigest string
	// Full is the merged digest over the new topology after cutover.
	Full Digest
}

func (o *RebalanceOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

func (o *RebalanceOptions) router(addrs []string) *Router {
	return &Router{
		Shards:      addrs,
		Timeout:     o.timeout(),
		Retries:     o.Retries,
		BackoffBase: o.BackoffBase,
		BackoffMax:  o.BackoffMax,
	}
}

func (o *RebalanceOptions) timeout() time.Duration {
	if o.Timeout <= 0 {
		return 30 * time.Second
	}
	return o.Timeout
}

// idList renders IDs the way the merakid migration queries take them.
func idList(ids []uint64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(id, 10)
	}
	return strings.Join(parts, ",")
}

// ParseIDList reverses idList — the daemon-side parser for the
// "extract"/"part"/"unpart"/"drop"/"absorb" ID operand.
func ParseIDList(s string) ([]uint64, error) {
	if s == "" {
		return nil, fmt.Errorf("cluster: empty network ID list")
	}
	parts := strings.Split(s, ",")
	ids := make([]uint64, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: bad network ID %q", p)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// shardReply converts a Reply into (lines, error), folding daemon-side
// ERR lines into the error.
func shardReply(rep Reply) ([]string, error) {
	if rep.Err != nil {
		return nil, fmt.Errorf("shard %d (%s): %w", rep.Shard, rep.Addr, rep.Err)
	}
	if len(rep.Lines) > 0 && strings.HasPrefix(rep.Lines[0], "ERR") {
		return nil, fmt.Errorf("shard %d (%s): %s", rep.Shard, rep.Addr, rep.Lines[0])
	}
	return rep.Lines, nil
}

// Rebalance migrates every network whose home changes between the old
// and new topologies, with the verify-gated cutover described above.
// All old shards must answer discovery — a rebalance that cannot see a
// shard's networks would silently strand them. On any failure after
// parting, the coordinator rolls back what it can (drop absorbed
// copies, un-part sources) and returns the first error.
func Rebalance(oldAddrs, newAddrs []string, o RebalanceOptions) (*RebalanceReport, error) {
	if len(oldAddrs) == 0 || len(newAddrs) == 0 {
		return nil, fmt.Errorf("cluster: rebalance needs both topologies (old=%d new=%d shards)", len(oldAddrs), len(newAddrs))
	}
	token := o.Token
	if token == "" {
		token = "rebalance"
	}
	oldR, newR := o.router(oldAddrs), o.router(newAddrs)
	rep := &RebalanceReport{Token: token, OldShards: len(oldAddrs), NewShards: len(newAddrs)}

	// 1. Discover. Every old shard must answer: a missing shard means
	// an unknown set of networks would be stranded.
	o.logf("rebalance: discovering networks across %d shard(s)", len(oldAddrs))
	owned := make([][]uint64, len(oldAddrs))
	for i, r := range oldR.Fanout("networks") {
		lines, err := shardReply(r)
		if err != nil {
			return nil, fmt.Errorf("cluster: discovery: %w", err)
		}
		for _, ln := range lines {
			id, err := strconv.ParseUint(strings.TrimSpace(ln), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: discovery: shard %d: bad network line %q", i, ln)
			}
			owned[i] = append(owned[i], id)
		}
	}

	// 2. Plan. A network moves when the shard listing it is not its
	// new-map home (by address, so a shard keeping its slot never
	// copies to itself). Networks listed away from their old-map home
	// are a previous run's leftovers mid-cutover; moving them from
	// where they actually are converges that run too.
	newMap := NewMap(len(newAddrs))
	groups := make(map[[2]int][]uint64)
	for src, ids := range owned {
		for _, id := range ids {
			dst := newMap.Shard(id)
			if newAddrs[dst] == oldAddrs[src] {
				continue
			}
			groups[[2]int{src, dst}] = append(groups[[2]int{src, dst}], id)
		}
	}
	pairs := make([][2]int, 0, len(groups))
	for p := range groups {
		sort.Slice(groups[p], func(i, j int) bool { return groups[p][i] < groups[p][j] })
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	moved := make(map[uint64]bool)
	for _, p := range pairs {
		rep.Transfers = append(rep.Transfers, Transfer{Src: p[0], Dst: p[1], Networks: groups[p]})
		for _, id := range groups[p] {
			moved[id] = true
		}
	}
	rep.MovedNetworks = len(moved)
	if len(pairs) == 0 {
		o.logf("rebalance: nothing to move")
		rep.Full, _ = newR.MergedDigest()
		return rep, nil
	}
	o.logf("rebalance: moving %d network(s) across %d shard pair(s)", len(moved), len(pairs))

	// 3. Part every source's moved set so the slices stop changing.
	bySrc := make(map[int][]uint64)
	for _, t := range rep.Transfers {
		bySrc[t.Src] = append(bySrc[t.Src], t.Networks...)
	}
	srcs := make([]int, 0, len(bySrc))
	for src := range bySrc {
		sort.Slice(bySrc[src], func(i, j int) bool { return bySrc[src][i] < bySrc[src][j] })
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	unpartAll := func() {
		for _, src := range srcs {
			if _, err := shardReply(oldR.queryShard(src, "unpart "+idList(bySrc[src]), nil)); err != nil {
				o.logf("rebalance: rollback: %v", err)
			}
		}
	}
	for _, src := range srcs {
		if _, err := shardReply(oldR.queryShard(src, "part "+idList(bySrc[src]), nil)); err != nil {
			unpartAll()
			return nil, fmt.Errorf("cluster: part: %w", err)
		}
	}

	// 4. Extract each pair's slice and merge the source-side view.
	pre := backend.NewStore()
	slices := make(map[[2]int][]string, len(pairs))
	for _, p := range pairs {
		lines, err := shardReply(oldR.queryShard(p[0], "extract "+idList(groups[p]), nil))
		if err != nil {
			unpartAll()
			return nil, fmt.Errorf("cluster: extract: %w", err)
		}
		raw, err := DecodeSnapshotLines(lines)
		if err != nil {
			unpartAll()
			return nil, fmt.Errorf("cluster: extract shard %d: %w", p[0], err)
		}
		if err := pre.MergeSnapshot(raw); err != nil {
			unpartAll()
			return nil, fmt.Errorf("cluster: extract shard %d: %w", p[0], err)
		}
		slices[p] = lines
		o.logf("rebalance: extracted %d network(s) from shard %d for shard %d (%d lines)",
			len(groups[p]), p[0], p[1], len(lines))
	}
	rep.SliceDigest = pre.Digest()

	// 5. Absorb into destinations, token-deduplicated per pair.
	pairToken := func(p [2]int) string { return fmt.Sprintf("%s.s%dd%d", token, p[0], p[1]) }
	dropAbsorbed := func() {
		for _, p := range pairs {
			if _, err := shardReply(newR.queryShard(p[1], fmt.Sprintf("drop %s %s", pairToken(p), idList(groups[p])), nil)); err != nil {
				o.logf("rebalance: rollback: %v", err)
			}
		}
	}
	for _, p := range pairs {
		header := fmt.Sprintf("absorb %s %s", pairToken(p), idList(groups[p]))
		// Absorption is token-deduplicated daemon-side, so the retry
		// loop may re-push blindly.
		lines, err := shardReply(newR.queryShard(p[1], header, slices[p]))
		if err != nil {
			dropAbsorbed()
			unpartAll()
			return nil, fmt.Errorf("cluster: absorb: %w", err)
		}
		o.logf("rebalance: shard %d %s", p[1], strings.Join(lines, " "))
	}

	// 6. Verify: what the destinations now hold for the moved set must
	// digest identically to what the sources exported.
	post := backend.NewStore()
	for _, p := range pairs {
		lines, err := shardReply(newR.queryShard(p[1], "extract "+idList(groups[p]), nil))
		if err != nil {
			dropAbsorbed()
			unpartAll()
			return nil, fmt.Errorf("cluster: verify: %w", err)
		}
		raw, err := DecodeSnapshotLines(lines)
		if err != nil {
			dropAbsorbed()
			unpartAll()
			return nil, fmt.Errorf("cluster: verify shard %d: %w", p[1], err)
		}
		if err := post.MergeSnapshot(raw); err != nil {
			dropAbsorbed()
			unpartAll()
			return nil, fmt.Errorf("cluster: verify shard %d: %w", p[1], err)
		}
	}
	if got := post.Digest(); got != rep.SliceDigest {
		dropAbsorbed()
		unpartAll()
		return nil, fmt.Errorf("cluster: verify gate failed: destination slice digest %s != source %s; rolled back (re-run with a fresh token)", got, rep.SliceDigest)
	}
	o.logf("rebalance: verify gate passed (slice digest %s)", rep.SliceDigest[:12])

	// 7. Cut over: sources drop the moved networks. They stay parted
	// there, so an old-map agent that has not re-routed yet cannot
	// rebuild a dropped network on its former home.
	for _, src := range srcs {
		lines, err := shardReply(oldR.queryShard(src, fmt.Sprintf("drop %s.s%d %s", token, src, idList(bySrc[src])), nil))
		if err != nil {
			return rep, fmt.Errorf("cluster: drop on shard %d after verified absorb: %w (destinations hold the data; re-run to finish the cutover)", src, err)
		}
		o.logf("rebalance: shard %d %s", src, strings.Join(lines, " "))
	}

	full, err := newR.MergedDigest()
	rep.Full = full
	if err != nil {
		return rep, fmt.Errorf("cluster: post-cutover digest: %w", err)
	}
	o.logf("rebalance: done; new-topology digest %s degraded=%v", full.Digest[:12], full.Degraded)
	return rep, nil
}
