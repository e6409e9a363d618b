package cluster

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wlanscale/internal/obs"
)

// servePromShard runs a minimal query server over ln answering "prom"
// and "series" from a registry — the federation subset of merakid's
// line protocol.
func servePromShard(ln net.Listener, reg *obs.Registry) {
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				w := bufio.NewWriter(c)
				for sc.Scan() {
					fields := strings.Fields(sc.Text())
					if len(fields) == 0 {
						continue
					}
					switch fields[0] {
					case "prom":
						reg.WriteProm(w)
					case "series":
						fmt.Fprintln(w, "t=1000 v=1.000")
						fmt.Fprintln(w, "t=2000 v=2.000")
					case "quit":
						w.Flush()
						return
					default:
						fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
					}
					fmt.Fprintln(w)
					w.Flush()
				}
			}(conn)
		}
	}()
}

// startPromShards serves one registry per shard and returns the router
// over them.
func startPromShards(t *testing.T, regs []*obs.Registry) *Router {
	t.Helper()
	addrs := make([]string, len(regs))
	for i, reg := range regs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		servePromShard(ln, reg)
	}
	return &Router{Shards: addrs, Timeout: 5 * time.Second}
}

// TestFanoutMetricsMergesShards: N shards scrape into one exposition,
// every sample labeled with its shard, TYPE emitted once per family.
func TestFanoutMetricsMergesShards(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	for i := range regs {
		regs[i] = obs.NewRegistry()
		regs[i].Counter("store.ingests").Add(int64(10 * (i + 1)))
		regs[i].Gauge("pool.devices").Set(int64(i))
	}
	r := startPromShards(t, regs)

	merged, replies := r.FanoutMetrics()
	if NumDown(replies) != 0 {
		t.Fatalf("healthy fleet reports down shards: %v", DownShards(replies))
	}
	lines := strings.Split(strings.TrimSpace(merged), "\n")

	var typeLines []string
	counts := make(map[string]int)
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			typeLines = append(typeLines, ln)
			continue
		}
		name, _, _ := strings.Cut(ln, "{")
		counts[name]++
	}
	// TYPE once per family, not once per shard per family.
	seenType := make(map[string]bool)
	for _, tl := range typeLines {
		if seenType[tl] {
			t.Errorf("duplicate TYPE line %q", tl)
		}
		seenType[tl] = true
	}
	if !seenType["# TYPE store_ingests counter"] {
		t.Errorf("missing counter TYPE line; got %v", typeLines)
	}
	if counts["store_ingests"] != 3 || counts["pool_devices"] != 3 {
		t.Fatalf("sample counts per family = %v, want 3 each", counts)
	}
	// Every shard's sample appears with its own label and value.
	for i := range regs {
		want := fmt.Sprintf(`store_ingests{shard="%d"} %d`, i, 10*(i+1))
		if !strings.Contains(merged, want) {
			t.Errorf("merged output missing %q:\n%s", want, merged)
		}
	}
}

// TestFanoutMetricsHistogramLabels: bucket samples already carry an le
// label; shard must be injected alongside it, and the series must stay
// parseable.
func TestFanoutMetricsHistogramLabels(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Histogram("flush_us", []int64{10, 100}).Observe(50)
	r := startPromShards(t, []*obs.Registry{reg})

	merged, _ := r.FanoutMetrics()
	for _, want := range []string{
		`flush_us_bucket{shard="0",le="10"} 0`,
		`flush_us_bucket{shard="0",le="100"} 1`,
		`flush_us_bucket{shard="0",le="+Inf"} 1`,
		`flush_us_sum{shard="0"} 50`,
		`flush_us_count{shard="0"} 1`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged output missing %q:\n%s", want, merged)
		}
	}
}

// TestFanoutMetricsPartialOnShardDown: a dead shard costs its samples,
// not the scrape — the other shards' samples still merge and the
// replies record which shard is down.
func TestFanoutMetricsPartialOnShardDown(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for i, reg := range regs {
		reg.Counter("store.ingests").Add(int64(i + 1))
	}
	r := startPromShards(t, regs)
	r.Shards[1] = downShard(t)
	r.Timeout = 500 * time.Millisecond

	merged, replies := r.FanoutMetrics()
	if NumDown(replies) != 1 || len(DownShards(replies)) != 1 || DownShards(replies)[0] != 1 {
		t.Fatalf("down accounting = %d/%v, want shard 1 down", NumDown(replies), DownShards(replies))
	}
	if !strings.Contains(merged, `store_ingests{shard="0"} 1`) {
		t.Errorf("surviving shard's sample missing:\n%s", merged)
	}
	if strings.Contains(merged, `shard="1"`) {
		t.Errorf("dead shard contributed samples:\n%s", merged)
	}
}

// TestMergePromSkipsErrReplies: a shard that answers an ERR line (e.g.
// an older build without the prom query) contributes nothing.
func TestMergePromSkipsErrReplies(t *testing.T) {
	merged := MergeProm([]Reply{
		{Shard: 0, Lines: []string{"# TYPE up gauge", "up 1"}},
		{Shard: 1, Lines: []string{`ERR unknown command "prom"`}},
	})
	if !strings.Contains(merged, `up{shard="0"} 1`) {
		t.Errorf("healthy shard's sample missing:\n%s", merged)
	}
	if strings.Contains(merged, "ERR") || strings.Contains(merged, `shard="1"`) {
		t.Errorf("ERR reply leaked into the merge:\n%s", merged)
	}
}

// TestMergePromUntypedFallback: samples arriving before any TYPE line
// (an older shard build) still merge, grouped by sample name and
// marked untyped.
func TestMergePromUntypedFallback(t *testing.T) {
	merged := MergeProm([]Reply{
		{Shard: 0, Lines: []string{"up 1", "reqs_total 5"}},
	})
	for _, want := range []string{
		"# TYPE up untyped",
		`up{shard="0"} 1`,
		"# TYPE reqs_total untyped",
		`reqs_total{shard="0"} 5`,
	} {
		if !strings.Contains(merged, want) {
			t.Errorf("merged output missing %q:\n%s", want, merged)
		}
	}
}

// TestFanoutSeriesAndMerge: FanoutSeries gathers one metric's history
// per shard; MergeSeriesLines tags points by shard and renders dead
// shards as DOWN lines.
func TestFanoutSeriesAndMerge(t *testing.T) {
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	r := startPromShards(t, regs)
	r.Shards[1] = downShard(t)
	r.Timeout = 500 * time.Millisecond

	lines := MergeSeriesLines(r.FanoutSeries("store.ingests", 2))
	var up, down int
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "shard=0 t="):
			up++
		case strings.HasPrefix(ln, "shard=1 DOWN:"):
			down++
		default:
			t.Errorf("unexpected merged line %q", ln)
		}
	}
	if up != 2 || down != 1 {
		t.Fatalf("merged lines = %v, want 2 shard-0 points and 1 DOWN line", lines)
	}
}
