package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
)

// The cluster kill harness: four real merakid shards, each with its own
// WAL dir, harvest a mixed-wire fleet routed by the shard map. One
// shard is SIGKILLed mid-harvest and restarted over its WAL. After the
// fleet drains, the router's merged digest — and the surviving shards'
// own "fanout digest" view — must equal a single in-process control
// store fed the same reports: sharding plus a crash changes nothing
// about what the cluster holds.

const clusterShards = 4

// clusterSpec is the sharded fleet: serials and client MACs embed the
// network ID, so networks — and therefore shards — own disjoint
// serials and clients.
var clusterSpec = fleettest.Spec{Networks: 6, APs: 2, Reports: 60}

// mergedDigest asks a test-side router for the merged digest over
// queries and requires it healthy and equal to want.
func mergedDigest(t *testing.T, queries []string, want string) {
	t.Helper()
	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		t.Fatalf("merged digest: %v", err)
	}
	if dig.Degraded || len(dig.Down) != 0 || dig.Digest != want {
		t.Fatalf("merged cluster digest\n got %s (degraded=%v down=%v)\nwant %s", dig.Digest, dig.Degraded, dig.Down, want)
	}
}

func TestClusterKillRecoveryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster harness; skipped in -short")
	}
	c := startCluster(t, clusterShards, fleettest.ShardFlags)

	// The fleet, routed by the same map merakisim uses: each agent's
	// address chain is exactly its network's shard.
	stop := make(chan struct{})
	defer close(stop)
	m := cluster.NewMap(clusterShards)
	f := fleettest.NewFleet(clusterSpec, clusterSpec.Reports)
	f.Run(func(net uint64) string { return c.Daemons[m.Shard(net)].Listen }, stop)

	// SIGKILL one shard mid-harvest and restart it over its WAL; its
	// agents retry through the outage while the other shards keep
	// harvesting undisturbed.
	const victim = 1
	time.Sleep(80 * time.Millisecond)
	killRestart(t, c.Daemons[victim])
	drain(t, f)

	// Arm one: the test-side router merges all four shards.
	want := clusterSpec.ControlDigest()
	mergedDigest(t, c.Queries(), want)

	// Arm two: the daemons' own scatter-gather — "fanout digest" asked
	// of the recovered victim itself must agree.
	lines := query(t, c.Daemons[victim].Query, "fanout digest")
	if len(lines) < 2 {
		t.Fatalf("fanout digest answered %q", lines)
	}
	if lines[0] != want {
		t.Fatalf("daemon-side fanout digest = %s, want %s (status %q)", lines[0], want, lines[1])
	}
	if !strings.Contains(lines[1], "degraded=false") {
		t.Fatalf("fanout summary = %q, want degraded=false", lines[1])
	}

	// Every shard self-identifies in status; together they cover 0..3.
	seen := make(map[string]bool)
	for _, q := range c.Queries() {
		for _, ln := range query(t, q, "status") {
			if strings.HasPrefix(ln, "shard ") {
				seen[ln] = true
			}
		}
	}
	for i := 0; i < clusterShards; i++ {
		if !seen[fmt.Sprintf("shard %d/%d", i, clusterShards)] {
			t.Fatalf("status lines %v missing shard %d", seen, i)
		}
	}
}
