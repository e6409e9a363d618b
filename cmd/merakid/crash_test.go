package main

import (
	"fmt"
	"testing"
	"time"

	"wlanscale/internal/fleettest"
	"wlanscale/internal/rng"
)

// The kill harness: a real merakid subprocess harvesting a small agent
// fleet is SIGKILLed at a seeded random moment and restarted over the
// same -wal-dir. Once the agents drain (every report acked), the
// daemon's "digest" query must equal a never-crashed control store fed
// the same reports — exactly-once across process death: no acked
// report lost, none double-counted.

// crashSpec is the kill harness's fleet: three APs of one network, the
// agents alternating wire versions so every recovery replays a WAL
// holding both record shapes (per-report v1 records and whole-batch v2
// frame records).
var crashSpec = fleettest.Spec{Networks: 1, APs: 3, Reports: 120}

// startCluster launches n WAL-backed merakid daemons (see
// fleettest.Start) and stops them when the test ends.
func startCluster(t *testing.T, n int, flags func(i int, c *fleettest.Cluster) []string) *fleettest.Cluster {
	t.Helper()
	bin, err := fleettest.Build("merakid")
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleettest.Start(fleettest.Config{Bin: bin, Daemons: n, WALRoot: t.TempDir(), Flags: flags})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// killRestart SIGKILLs d and restarts it over its WAL on the same
// addresses.
func killRestart(t *testing.T, d *fleettest.Daemon) {
	t.Helper()
	if err := d.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
}

// drain waits for f to drain within drainDeadline.
func drain(t *testing.T, f *fleettest.Fleet) {
	t.Helper()
	if err := f.Drain(drainDeadline(t)); err != nil {
		t.Fatal(err)
	}
}

// drainDeadline derives the fleet-drain budget from the test binary's
// own -timeout instead of a hard-coded constant. A fixed 30 s guess
// flaked under -race on loaded runners — the race detector slows the
// harvest several-fold while the budget stayed fixed — whereas
// t.Deadline minus a teardown margin spends every second the run
// actually has. Without a deadline (-timeout 0) the old 30 s stands,
// and a floor keeps the loop from failing before its first poll when
// the remaining budget is nearly gone.
func drainDeadline(t *testing.T) time.Time {
	t.Helper()
	floor := time.Now().Add(5 * time.Second)
	if d, ok := t.Deadline(); ok {
		if d = d.Add(-10 * time.Second); d.After(floor) {
			return d
		}
		return floor
	}
	return time.Now().Add(30 * time.Second)
}

// crashHarvest runs the kill harness: it starts one daemon, lets the
// crash fleet harvest into it, kills and restarts the daemon after each
// of kills, drains the fleet and checks the recovered digest.
func crashHarvest(t *testing.T, kills []time.Duration) {
	d := startCluster(t, 1, nil).Daemons[0]
	stop := make(chan struct{})
	defer close(stop)
	f := fleettest.NewFleet(crashSpec, crashSpec.Reports)
	f.Run(func(uint64) string { return d.Listen }, stop)
	for _, wait := range kills {
		time.Sleep(wait)
		killRestart(t, d)
	}
	drain(t, f)
	lines := query(t, d.Query, "digest")
	if want := crashSpec.ControlDigest(); len(lines) != 1 || lines[0] != want {
		t.Fatalf("post-recovery digest = %q, want %s\nstatus: %q", lines, want, query(t, d.Query, "status"))
	}
}

func TestCrashRecoveryDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill harness; skipped in -short")
	}
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// SIGKILL at a seeded moment mid-harvest. With -poll 20ms and
			// 120 reports per agent in 8-report batches a full harvest
			// takes ~300ms; the 30–400ms window lands kills everywhere
			// from "barely started" to "already drained".
			delay := 30 + time.Duration(rng.New(seed).Split("kill-delay").IntN(370))
			crashHarvest(t, []time.Duration{delay * time.Millisecond})
		})
	}
}

// TestCrashRecoveryDoubleKill kills the daemon twice — once
// mid-harvest and once right after recovery — to prove replay is
// idempotent under repeated crashes, not just one.
func TestCrashRecoveryDoubleKill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill harness; skipped in -short")
	}
	crashHarvest(t, []time.Duration{120 * time.Millisecond, 40 * time.Millisecond})
}
