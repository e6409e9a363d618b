package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/click"
	"wlanscale/internal/client"
	"wlanscale/internal/cluster"
	"wlanscale/internal/epoch"
	"wlanscale/internal/obs"
	"wlanscale/internal/rng"
	"wlanscale/internal/synth"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// The layer ledger replays the seed's inputs through each layer's
// public calls and times every call from the outside. It runs on every
// traced run, so each workload reports the same per-layer metrics:
// the offline pipeline's layers on a fixed sample of networks, the
// harvest path's layers on the seed's stream at the workload's
// observed batch size, and the whole-store operations at the
// workload's store size.
const (
	ledgerNetworks = 6 // networks of the usage fleet replayed through the offline layers
	ledgerWindows  = 4 // stream windows replayed through the harvest layers
	ledgerStallFor = 3 // whole-store passes (Save + Digest) the stall probe spans
	stallGap       = 50 * time.Millisecond
)

type ledger map[string]float64

// stopwatch accumulates the time and count of one kind of call.
type stopwatch struct {
	d time.Duration
	n int
}

func (s *stopwatch) since(t time.Time) { s.d += time.Since(t); s.n++ }

// us is the mean per call in microseconds.
func (s *stopwatch) us() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.d) / float64(s.n) / 1e3
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runLedger measures every layer. dir is scratch space for WAL files;
// batch is the observed reports per poll round; store, when non-nil, is
// the workload's store (the whole-store calls run on it).
func runLedger(seed uint64, dir string, batch int, store *backend.Store) (ledger, error) {
	out := ledger{}
	if err := offlineLayers(seed, out); err != nil {
		return nil, fmt.Errorf("offline layers: %w", err)
	}
	reports, payloads, err := harvestLayers(seed, dir, max(batch, 1), out)
	if err != nil {
		return nil, fmt.Errorf("harvest layers: %w", err)
	}
	if store == nil {
		store = backend.NewStore()
		for _, r := range reports {
			store.Ingest(r)
		}
	}
	if err := storeLayers(seed, dir, store, payloads, out); err != nil {
		return nil, fmt.Errorf("whole-store layers: %w", err)
	}
	return out, nil
}

// offlineLayers replays ledgerNetworks networks of a fresh usage fleet
// at the seed through the usage pipeline's calls, in its order:
// WeeklyFlows → BuildMeta → Pipe.Push (and Classifier.Classify on the
// same flow, alone) → BuildReport → Marshal → UnmarshalReport → Ingest.
func offlineLayers(seed uint64, out ledger) error {
	cfg := studyConfig(seed)
	f, err := synth.GenerateFleet(synth.Params{
		Seed: seed, NumNetworks: cfg.UsageNetworks, Epoch: epoch.Jan2015, ClientCap: cfg.ClientCap,
	})
	if err != nil {
		return err
	}
	catalog := apps.Catalog()
	cls := f.Classifier()
	src := rng.New(seed).Split("perfbench/ledger")
	st := backend.NewStoreShards(1)
	var weekly, meta, push, classify, build, marshal, unmarshal, ingest stopwatch
	flows, named := 0, 0
	for _, n := range f.NetworkOrder()[:ledgerNetworks] {
		nsrc := src.SplitN("net", n.ID)
		for i, dev := range f.Clients(n) {
			a := n.APs[i%len(n.APs)]
			csrc := nsrc.SplitN("client", i)
			if _, err := a.Associate(dev, csrc.LogNormalMeanMedian(15, 0.45), csrc.Split("assoc")); err != nil {
				return err
			}
			a.ObserveClientDHCP(dev, csrc.Split("dhcp"))
			ua := apps.UserAgentFor(dev.OS)
			if dev.Ambiguous {
				ua = ""
			}
			t := time.Now()
			fss := dev.WeeklyFlows(epoch.Jan2015, catalog, csrc.Split("flows"))
			weekly.since(t)
			for fid, fs := range fss {
				t = time.Now()
				m := client.BuildMeta(fs, ua)
				meta.since(t)
				t = time.Now()
				res := cls.Classify(m)
				classify.since(t)
				flows++
				if res.App == fs.App.Name {
					named++
				}
				pkts := []*click.Packet{{Client: dev.MAC, FlowID: uint64(fid), Length: 300, Meta: &m}}
				if fs.DownBytes > 0 {
					pkts = append(pkts, &click.Packet{Client: dev.MAC, FlowID: uint64(fid), Length: int(fs.DownBytes)})
				}
				if fs.UpBytes > 0 {
					pkts = append(pkts, &click.Packet{Client: dev.MAC, FlowID: uint64(fid), Length: int(fs.UpBytes), Upstream: true})
				}
				for _, p := range pkts {
					t = time.Now()
					a.Pipe.Push(p)
					push.since(t)
				}
			}
		}
		for _, a := range n.APs {
			t := time.Now()
			rep := a.BuildReport(uint64(epoch.Jan2015)*1e6, nil, nil, nil)
			build.since(t)
			t = time.Now()
			wire := rep.Marshal()
			marshal.since(t)
			t = time.Now()
			dec, err := telemetry.UnmarshalReport(wire)
			unmarshal.since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			st.Ingest(dec)
			ingest.since(t)
		}
	}
	out["client.weekly_flows_us"] = weekly.us()
	out["client.build_meta_us"] = meta.us()
	out["click.push_us"] = push.us()
	out["apps.classify_us"] = classify.us()
	out["apps.named_frac"] = float64(named) / float64(flows)
	out["ap.build_report_us"] = build.us()
	out["telemetry.v1_marshal_us"] = marshal.us()
	out["telemetry.v1_unmarshal_us"] = unmarshal.us()
	out["backend.epoch_ingest_us"] = ingest.us()
	return nil
}

// memConn is an in-memory net.Conn: writes append to a buffer that
// reads drain, so a Tunnel can seal and open frames with no socket.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error                     { return nil }
func (*memConn) LocalAddr() net.Addr              { return nil }
func (*memConn) RemoteAddr() net.Addr             { return nil }
func (*memConn) SetDeadline(time.Time) error      { return nil }
func (*memConn) SetReadDeadline(time.Time) error  { return nil }
func (*memConn) SetWriteDeadline(time.Time) error { return nil }

// harvestLayers replays ledgerWindows windows of the seed's stream
// through the harvest path's calls: Agent.Enqueue, the agent's batch
// build (an in-process agent polled over net.Pipe), BatchEncoder,
// Tunnel.WriteFrame/ReadFrame, DecodeBatchFrame, wal.Log.AppendBatch,
// Store.Ingest and DurableStore.IngestBatchFrame. It returns the
// decoded reports and the batch payloads they came from.
func harvestLayers(seed uint64, dir string, batch int, out ledger) ([]*telemetry.Report, [][]byte, error) {
	s, err := newStream(seed)
	if err != nil {
		return nil, nil, err
	}
	var reports []*telemetry.Report
	for w := 0; w < ledgerWindows; w++ {
		reports = append(reports, s.window(w)...)
	}
	n := len(reports)

	h := newHarvestAgent(0, nil)
	m0 := mallocs()
	t := time.Now()
	for _, r := range reports {
		h.enqueue(r, t)
	}
	out["telemetry.enqueue_us"] = float64(time.Since(t)) / float64(n) / 1e3
	out["telemetry.enqueue_allocs"] = float64(mallocs()-m0) / float64(n)
	buildUS, err := pipeHarvest(h, batch)
	if err != nil {
		return nil, nil, err
	}
	out["telemetry.batch_build_us"] = buildUS

	var enc, dec, seal, open, appendW, ingest, durable stopwatch
	var payloads [][]byte
	var frames []*telemetry.BatchFrame
	wireBytes := 0
	for i := 0; i < n; i += batch {
		chunk := reports[i:min(i+batch, n)]
		t := time.Now()
		be := telemetry.NewBatchEncoder(0)
		for _, r := range chunk {
			be.Add(r)
		}
		p := be.Finish(0, 0, nil)
		enc.d += time.Since(t)
		enc.n += len(chunk)
		wireBytes += len(p)
		payloads = append(payloads, p)
	}
	decAllocs0 := mallocs()
	for _, p := range payloads {
		t := time.Now()
		fr, err := telemetry.DecodeBatchFrame(p)
		dec.d += time.Since(t)
		if err != nil {
			return nil, nil, err
		}
		dec.n += len(fr.Reports)
		frames = append(frames, fr)
	}
	out["telemetry.decode_allocs"] = float64(mallocs()-decAllocs0) / float64(n)
	out["telemetry.encode_us"] = enc.us()
	out["telemetry.decode_us"] = dec.us()
	out["telemetry.wire_bytes_per_report"] = float64(wireBytes) / float64(n)

	mc := &memConn{}
	tun, err := telemetry.NewTunnel(mc, tunnelKey)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range payloads {
		t := time.Now()
		if err := tun.WriteFrame(p); err != nil {
			return nil, nil, err
		}
		seal.since(t)
		t = time.Now()
		if _, err := tun.ReadFrame(); err != nil {
			return nil, nil, err
		}
		open.since(t)
	}
	out["telemetry.seal_us"] = seal.us()
	out["telemetry.open_us"] = open.us()

	reg := obs.NewRegistry()
	log, err := wal.Open(filepath.Join(dir, "ledger-wal"), wal.Options{Policy: wal.PolicyInterval})
	if err != nil {
		return nil, nil, err
	}
	log.EnableObs(reg)
	for _, p := range payloads {
		t := time.Now()
		if _, err := log.AppendBatch([][]byte{p}); err != nil {
			log.Close()
			return nil, nil, err
		}
		appendW.since(t)
	}
	if err := log.Close(); err != nil {
		return nil, nil, err
	}
	out["wal.append_us"] = appendW.us()
	counters := map[string]int64{}
	for _, sm := range reg.Snapshot() {
		counters[sm.Name] = sm.Value
	}
	out["wal.bytes_per_report"] = float64(counters["wal.append_bytes"]) / float64(n)
	out["wal.fsyncs"] = float64(counters["wal.fsyncs"])

	var decoded []*telemetry.Report
	for _, fr := range frames {
		decoded = append(decoded, fr.Reports...)
	}
	st := backend.NewStore()
	ingAllocs0 := mallocs()
	for _, r := range decoded {
		t := time.Now()
		st.Ingest(r)
		ingest.since(t)
	}
	out["backend.ingest_allocs"] = float64(mallocs()-ingAllocs0) / float64(n)
	out["backend.ingest_us"] = ingest.us()

	ds, _, err := backend.OpenDurable(filepath.Join(dir, "ledger-durable"), backend.DurableOptions{
		WAL: wal.Options{Policy: wal.PolicyInterval},
	})
	if err != nil {
		return nil, nil, err
	}
	for i, fr := range frames {
		t := time.Now()
		if err := ds.IngestBatchFrame(fr.Reports, payloads[i]); err != nil {
			ds.Close()
			return nil, nil, err
		}
		durable.d += time.Since(t)
		durable.n += len(fr.Reports)
	}
	out["backend.durable_ingest_us"] = durable.us()
	if err := ds.Close(); err != nil {
		return nil, nil, err
	}
	return decoded, payloads, nil
}

// pipeHarvest drains h through an in-process poller over net.Pipe at
// the given batch size and returns the agent's median batch-build time
// (poll received to batch written) in microseconds.
func pipeHarvest(h *harvestAgent, batch int) (float64, error) {
	agentEnd, pollerEnd := net.Pipe()
	h.serve(agentEnd)
	defer h.stop()
	p, err := telemetry.AcceptPoller(pollerEnd, tunnelKey)
	if err != nil {
		return 0, err
	}
	defer p.Close()
	p.NegotiateWire(telemetry.WireV2)
	for h.acked() < h.enq {
		if _, err := p.Poll(batch); err != nil {
			return 0, err
		}
	}
	rounds, _ := h.conn.Rounds(h.acked())
	var build []float64
	for _, r := range rounds {
		build = append(build, float64(r.WriteAt.Sub(r.PollAt))/1e3)
	}
	return median(build), nil
}

// storeLayers times the whole-store operations on store, and probes the
// worst stall a concurrent ingester sees while they run.
func storeLayers(seed uint64, dir string, store *backend.Store, payloads [][]byte, out ledger) error {
	// Heap a store holds per client: decode and ingest the batches into
	// a fresh store, let the decoded reports go, and weigh what stays.
	h0 := heapAlloc()
	fresh := backend.NewStore()
	for _, p := range payloads {
		fr, err := telemetry.DecodeBatchFrame(p)
		if err != nil {
			return err
		}
		for _, r := range fr.Reports {
			fresh.Ingest(r)
		}
	}
	out["backend.heap_bytes_per_client"] = float64(int64(heapAlloc())-int64(h0)) / float64(fresh.NumClients())
	runtime.KeepAlive(fresh)

	clients := float64(store.NumClients())
	var buf bytes.Buffer
	t := time.Now()
	if err := store.Save(&buf); err != nil {
		return err
	}
	out["backend.save_ms"] = ms(time.Since(t))
	out["backend.snapshot_bytes_per_client"] = float64(buf.Len()) / clients
	t = time.Now()
	store.Digest()
	out["backend.digest_ms"] = ms(time.Since(t))

	var lines bytes.Buffer
	t = time.Now()
	if err := cluster.WriteSnapshotLines(&lines, store); err != nil {
		return err
	}
	out["cluster.snapshot_lines_ms"] = ms(time.Since(t))
	t = time.Now()
	rd, err := cluster.DecodeSnapshotLines(strings.Split(strings.TrimSuffix(lines.String(), "\n"), "\n"))
	if err != nil {
		return err
	}
	if err := backend.NewStore().MergeSnapshot(rd); err != nil {
		return err
	}
	out["cluster.merge_ms"] = ms(time.Since(t))

	ds, _, err := backend.OpenDurable(filepath.Join(dir, "ledger-checkpoint"), backend.DurableOptions{
		WAL: wal.Options{Policy: wal.PolicyInterval},
	})
	if err != nil {
		return err
	}
	ds.Store.Merge(store)
	t = time.Now()
	err = ds.Checkpoint()
	out["backend.checkpoint_ms"] = ms(time.Since(t))
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	out["backend.ingest_stall_max_ms"] = stallProbe(seed, store)
	return nil
}

// stallProbe ingests fresh reports into store from a second goroutine
// while Save and Digest walk it, and returns the longest single Ingest
// in milliseconds: the stall whole-store reads impose on ingest. The
// reads are spaced by stallGap so each stall shows on its own.
func stallProbe(seed uint64, store *backend.Store) float64 {
	s, err := newStream(seed)
	if err != nil {
		return 0
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var worst time.Duration
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := uint64(1) << 40 // above every seqno the workload used
		for w := 1 << 20; ; w++ {
			for i := range s.aps {
				select {
				case <-stop:
					return
				default:
				}
				r := s.report(w, i)
				seq++
				r.SeqNo = seq
				t := time.Now()
				store.Ingest(r)
				worst = max(worst, time.Since(t))
			}
		}
	}()
	for i := 0; i < ledgerStallFor; i++ {
		time.Sleep(stallGap)
		_ = store.Save(&bytes.Buffer{}) // a bytes.Buffer write cannot fail
		time.Sleep(stallGap)
		store.Digest()
	}
	close(stop)
	wg.Wait()
	return ms(worst)
}
