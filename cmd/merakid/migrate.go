// Migration queries: the daemon side of live shard rebalancing
// (DESIGN.md §13). The cluster.Rebalance coordinator drives these —
// "networks" for discovery, "part"/"unpart" to freeze a moved slice,
// "extract" to export it, "absorb" to ingest it under a dedup token,
// "drop" to cut it over — and "rebalance" runs the whole coordinator
// from any shard that has -peers configured. On a durable daemon every
// state change here is WAL-logged before it applies, so a SIGKILL
// mid-migration recovers to exactly the acknowledged step.

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"wlanscale/internal/backend"
	"wlanscale/internal/cluster"
	"wlanscale/internal/telemetry"
)

// queryNetworks answers "networks": the network IDs this shard holds,
// one decimal ID per line — the rebalance coordinator's discovery set.
func (d *daemon) queryNetworks(w io.Writer) {
	for _, id := range d.store.Networks(backend.NetworkOfSerial) {
		fmt.Fprintf(w, "%d\n", id)
	}
}

// queryExtract answers "extract IDS": a consistent deep-copied
// snapshot of just those networks, in the same base64-line encoding as
// "snapshot" (chunked, so an arbitrarily large slice never exceeds the
// line-protocol width).
func (d *daemon) queryExtract(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintln(w, "ERR extract needs a network ID list, e.g. extract 3,17")
		return
	}
	ids, err := cluster.ParseIDList(fields[1])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	slice := d.store.ExtractNetworks(backend.IDSet(ids), backend.NetworkOfSerial)
	if err := cluster.WriteSnapshotLines(w, slice); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
	}
}

// queryPart answers "part IDS" and "unpart IDS": mark (or clear) the
// networks as mid-migration, refusing ingestion so devices requeue.
func (d *daemon) queryPart(w io.Writer, fields []string) {
	if len(fields) < 2 {
		fmt.Fprintf(w, "ERR %s needs a network ID list\n", fields[0])
		return
	}
	ids, err := cluster.ParseIDList(fields[1])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	part := fields[0] == "part"
	if d.durable != nil {
		if part {
			err = d.durable.PartNetworks(ids)
		} else {
			err = d.durable.UnpartNetworks(ids)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
	} else if part {
		d.store.Part(ids)
	} else {
		d.store.Unpart(ids)
	}
	if part {
		fmt.Fprintf(w, "parted n=%d\n", len(ids))
	} else {
		fmt.Fprintf(w, "unparted n=%d\n", len(ids))
	}
}

// queryDrop answers "drop TOKEN IDS": delete the networks and forget
// TOKEN's absorb mark — the cutover on a source, the rollback on a
// destination.
func (d *daemon) queryDrop(w io.Writer, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintln(w, "ERR drop needs a token and a network ID list")
		return
	}
	ids, err := cluster.ParseIDList(fields[2])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	var nets, entries int
	if d.durable != nil {
		nets, entries, err = d.durable.DropNetworks(fields[1], ids)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
	} else {
		nets, entries = d.store.Drop(fields[1], ids, backend.NetworkOfSerial)
	}
	fmt.Fprintf(w, "dropped networks=%d entries=%d\n", nets, entries)
}

// queryAbsorb answers "absorb TOKEN IDS" followed by the slice as
// base64 payload lines ended by a blank line (cluster.Query's payload
// framing). Absorption is token-deduplicated — re-pushing TOKEN
// answers "already" without touching the store — which is what
// makes the coordinator's blind retries and crash re-runs safe.
func (d *daemon) queryAbsorb(w io.Writer, sc *bufio.Scanner, fields []string) {
	if len(fields) < 3 {
		fmt.Fprintln(w, "ERR absorb needs a token and a network ID list")
		return
	}
	token := fields[1]
	ids, err := cluster.ParseIDList(fields[2])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	// The payload rides the same scanner the command line came from.
	var payload []string
	for sc.Scan() {
		ln := sc.Text()
		if ln == "" {
			break
		}
		payload = append(payload, ln)
	}
	raw, err := cluster.DecodeSnapshotBytes(payload)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	var applied bool
	if d.durable != nil {
		applied, err = d.durable.AbsorbSnapshot(token, ids, raw)
	} else {
		applied, err = d.store.Absorb(token, ids, bytes.NewReader(raw), backend.NetworkOfSerial)
	}
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	if !applied {
		fmt.Fprintf(w, "already token=%s\n", token)
		return
	}
	fmt.Fprintf(w, "absorbed token=%s networks=%d\n", token, len(ids))
}

// queryRebalance answers "rebalance NEWADDRS [TOKEN]": run the full
// coordinator from this daemon, migrating from the -peers topology to
// the comma-separated NEWADDRS query addresses. Progress streams back
// as "# " lines; the final line is the machine-readable verdict
// ("rebalanced ..." or "ERR ..."). The default token is deterministic
// in the map epoch and the shard counts, so a crashed run re-run
// verbatim converges via absorb dedup instead of double-ingesting.
func (d *daemon) queryRebalance(w *bufio.Writer, fields []string) {
	if d.router == nil {
		fmt.Fprintln(w, "ERR no cluster peers configured (-peers)")
		return
	}
	if len(fields) < 2 {
		fmt.Fprintln(w, "ERR rebalance needs the new topology, e.g. rebalance host:7772,host:7782,host:7792")
		return
	}
	newAddrs := strings.Split(fields[1], ",")
	for i := range newAddrs {
		newAddrs[i] = strings.TrimSpace(newAddrs[i])
	}
	token := fmt.Sprintf("epoch%d-%dto%d", d.mapEpoch, len(d.router.Shards), len(newAddrs))
	if len(fields) > 2 {
		token = fields[2]
	}
	o := cluster.RebalanceOptions{
		Token:   token,
		Timeout: d.timeout,
		Log: func(format string, args ...any) {
			fmt.Fprintf(w, "# "+format+"\n", args...)
			w.Flush()
		},
	}
	rep, err := cluster.Rebalance(d.router.Shards, newAddrs, o)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(w, "rebalanced token=%s moved=%d transfers=%d old=%d new=%d digest=%s degraded=%t\n",
		rep.Token, rep.MovedNetworks, len(rep.Transfers), rep.OldShards, rep.NewShards,
		rep.Full.Digest, rep.Full.Degraded)
}

// partCheck refuses a poll batch that touches a parted (mid-migration)
// network, before any ack: the poll errors, the device keeps its
// queue, and the report lands at the network's new home once the agent
// re-routes. Composed before the WAL ingest on durable daemons — a
// part refusal is backpressure, not a durability failure, so it must
// not degrade the daemon.
func (d *daemon) partCheck(reports []*telemetry.Report) error {
	for _, r := range reports {
		if id, ok := backend.NetworkOfSerial(r.Serial); ok && d.store.IsParted(id) {
			return fmt.Errorf("network %d is mid-migration (parted); requeue", id)
		}
	}
	return nil
}
