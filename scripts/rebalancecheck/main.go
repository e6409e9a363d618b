// Command rebalancecheck is the live-migration smoke gate (`make
// rebalance-smoke`): it starts a 2-shard WAL-backed merakid cluster
// plus an empty third shard, harvests a first wave of reports into the
// two old shards, and grows the cluster with the real operator flow —
// `merakireport -cluster OLD -rebalance NEW` — then flips the agents to
// the new topology for a second wave. The gate fails unless:
//
//   - the rebalance driver exits zero and a re-run reports nothing
//     left to move (the runbook's convergence check),
//   - every moved network is listed by the new shard and absent from
//     its old home, and
//   - the 3-shard merged digest equals a single in-process control
//     store fed both waves — migration plus re-homed ingestion
//     changed nothing about what the cluster holds.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/fleettest"
)

// spec's streams split into two waves around the rebalance.
var spec = fleettest.Spec{Networks: 6, APs: 2, Reports: 60}

const waveSplit = 30

// networksOn lists the network IDs one shard holds.
func networksOn(query string) (map[uint64]bool, error) {
	lines, err := cluster.Query(query, "networks", nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	ids := make(map[uint64]bool)
	for _, ln := range lines {
		id, err := strconv.ParseUint(ln, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("networks line %q from %s", ln, query)
		}
		ids[id] = true
	}
	return ids, nil
}

func run() error {
	merakid, err := fleettest.Build("merakid")
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(merakid))
	merakireport, err := fleettest.Build("merakireport")
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(merakireport))
	tmp, err := os.MkdirTemp("", "rebalancecheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	c, err := fleettest.Start(fleettest.Config{Bin: merakid, Daemons: 3, WALRoot: tmp, Flags: fleettest.GrowFlags(2)})
	if err != nil {
		return err
	}
	defer c.Stop()
	queries := c.Queries()
	oldPeers := strings.Join(queries[:2], ",")
	newPeers := strings.Join(queries, ",")

	// Wave one: harvest the first half of every AP's stream into the
	// 2-shard cluster, routed by the old map.
	oldMap, newMap := cluster.NewMap(2), cluster.NewMap(3)
	f := fleettest.NewFleet(spec, waveSplit)
	stopOld := make(chan struct{})
	f.Run(func(net uint64) string { return c.Daemons[oldMap.Shard(net)].Listen }, stopOld)
	err = f.Drain(time.Now().Add(60 * time.Second))
	close(stopOld) // wave one delivered; agents re-home for wave two
	if err != nil {
		return err
	}

	// The operator command grows the cluster: part, extract, absorb,
	// digest-verify, cut over.
	out, err := exec.Command(merakireport, "-cluster", oldPeers, "-rebalance", newPeers).CombinedOutput()
	if err != nil {
		return fmt.Errorf("merakireport -rebalance: %v\n%s", err, out)
	}
	fmt.Fprintf(os.Stderr, "%s", out)
	if !strings.Contains(string(out), "moved networks=") || strings.Contains(string(out), "moved networks=0") {
		return fmt.Errorf("rebalance moved nothing:\n%s", out)
	}

	// Convergence check from the runbook: a second run finds every
	// network already home.
	out, err = exec.Command(merakireport, "-cluster", oldPeers, "-rebalance", newPeers).CombinedOutput()
	if err != nil {
		return fmt.Errorf("merakireport -rebalance re-run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "moved networks=0") {
		return fmt.Errorf("re-run still moving networks:\n%s", out)
	}

	// Moved networks must have left their sources and arrived whole on
	// the new shard.
	newIDs, err := networksOn(queries[2])
	if err != nil {
		return err
	}
	for n := 0; n < spec.Networks; n++ {
		id := uint64(100 + n)
		if oldMap.Shard(id) == newMap.Shard(id) {
			continue
		}
		src, err := networksOn(queries[oldMap.Shard(id)])
		if err != nil {
			return err
		}
		if src[id] {
			return fmt.Errorf("moved network %d still on old shard %d", id, oldMap.Shard(id))
		}
		if !newIDs[id] {
			return fmt.Errorf("moved network %d missing from new shard", id)
		}
	}

	// Wave two: the flipped fleet delivers the rest of its streams to
	// the new topology — moved networks now land on the new shard.
	stopNew := make(chan struct{})
	defer close(stopNew)
	f.EnqueueRest()
	f.Run(func(net uint64) string { return c.Daemons[newMap.Shard(net)].Listen }, stopNew)
	if err := f.Drain(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}

	want := spec.ControlDigest()
	r := &cluster.Router{Shards: queries, Timeout: 5 * time.Second}
	dig, err := r.MergedDigest()
	if err != nil {
		return fmt.Errorf("router merge: %v", err)
	}
	if dig.Degraded || len(dig.Down) != 0 {
		return fmt.Errorf("healthy cluster reported degraded: %+v", dig)
	}
	if dig.Digest != want {
		return fmt.Errorf("post-rebalance digest mismatch\n got %s\nwant %s", dig.Digest, want)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "rebalancecheck: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("rebalancecheck: PASS: 2->3 live rebalance kept the merged digest identical to the control")
}
