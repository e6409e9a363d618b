package backend

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// legacySnapshot flattens s into the gob form builds before the binary
// snapshot wrote, for the legacy-input tests. Test-only: it reads the
// stripes without locks.
func legacySnapshot(s *Store) snapshot {
	snap := snapshot{
		Seen:      make(map[string]uint64),
		Clients:   make(map[dot11.MAC]*ClientAggregate),
		Links:     make(map[LinkKey]*LinkSeries),
		Radio:     make(map[string][]RadioSample),
		Scans:     make(map[string][]ScanPoint),
		Neighbors: make(map[string]map[dot11.BSSID]NeighborEntry),
		Crashes:   make(map[string][]telemetry.CrashRecord),
	}
	for _, cs := range s.clientShards {
		for mac, c := range cs.clients {
			snap.Clients[mac] = c
		}
	}
	for _, ds := range s.deviceShards {
		for k, v := range ds.seen {
			snap.Seen[k] = v
		}
		for k, v := range ds.links {
			snap.Links[k] = v
		}
		for k, v := range ds.radio {
			snap.Radio[k] = v
		}
		for k, v := range ds.scans {
			snap.Scans[k] = v
		}
		for k, v := range ds.neighbors {
			snap.Neighbors[k] = v
		}
		for k, v := range ds.crashes {
			snap.Crashes[k] = v
		}
	}
	if len(s.absorbed) > 0 {
		snap.Absorbed = s.absorbed
	}
	if len(s.parted) > 0 {
		snap.Parted = s.parted
	}
	return snap
}

func legacyGob(t testing.TB, s *Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(legacySnapshot(s)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func saveBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// richStore covers every field the snapshot carries: multi-window
// series, clients seen by two APs with several user agents and
// fingerprints in arrival order, unnormalized capabilities, crashes,
// and migration bookkeeping.
func richStore() *Store {
	s := NewStore()
	for w := uint64(1); w <= 3; w++ {
		for ap := 0; ap < 4; ap++ {
			s.Ingest(benchReport(ap, w))
			s.Ingest(netReport(7, ap, w))
		}
	}
	roam := dot11.MAC{0x02, 0xaa, 0, 0, 0, 1}
	for i, serial := range []string{"Q2RM-0001", "Q2RM-0002"} {
		s.Ingest(&telemetry.Report{Serial: serial, SeqNo: 1, Clients: []telemetry.ClientRecord{{
			MAC: roam, Band: dot11.Band5, RSSIdB: -61,
			Caps:             dot11.Capabilities{AC: true, Width80: true, Streams: 7},
			UserAgents:       []string{[]string{"zeta", "alpha"}[i], "mid"},
			DHCPFingerprints: [][]byte{{9, byte(i)}, {1}},
			Apps:             []telemetry.AppUsageRecord{{App: "Skype", UpBytes: 1 << 40, DownBytes: 3, Flows: 2}},
		}}})
	}
	s.Part([]uint64{11, 12})
	s.MarkAbsorbed("tok-rich")
	return s
}

// TestSnapshotRoundTripExact: a binary snapshot restores the store
// exactly — user-agent and fingerprint order, capabilities as stored,
// every series, and the migration bookkeeping — into any shard count.
func TestSnapshotRoundTripExact(t *testing.T) {
	src := richStore()
	want := src.Digest()
	raw := saveBytes(t, src)
	for _, shards := range []int{1, 4, DefaultShards} {
		dst := NewStoreShards(shards)
		if err := dst.Load(bytes.NewReader(raw)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := dst.Digest(); got != want {
			t.Fatalf("shards=%d: digest %s, want %s", shards, got, want)
		}
		if !reflect.DeepEqual(dst.Clients(), src.Clients()) {
			t.Fatalf("shards=%d: client aggregates differ after round trip", shards)
		}
		if !reflect.DeepEqual(dst.Links(), src.Links()) {
			t.Fatalf("shards=%d: links differ after round trip", shards)
		}
		for _, serial := range src.CrashSerials() {
			if !reflect.DeepEqual(dst.Crashes(serial), src.Crashes(serial)) {
				t.Fatalf("shards=%d: crashes of %s differ", shards, serial)
			}
		}
		if !reflect.DeepEqual(dst.PartedIDs(), []uint64{11, 12}) || !dst.HasAbsorbed("tok-rich") {
			t.Fatalf("shards=%d: migration bookkeeping lost", shards)
		}
		if again := saveBytes(t, dst); len(again) != len(raw) {
			t.Fatalf("shards=%d: re-saved snapshot is %d bytes, first was %d", shards, len(again), len(raw))
		}
	}
}

// TestDigestInjective: the digest's dump must be injective. Each pair
// below holds different data that a separator-based text dump (spaces,
// "/" and newlines, nothing escaped) renders to the same bytes.
func TestDigestInjective(t *testing.T) {
	mac := dot11.MAC{0x02, 0, 0, 0, 0, 7}
	bssid := dot11.BSSID{0x06, 0, 0, 0, 0, 7}
	client := func(uas []string, apps ...telemetry.AppUsageRecord) *telemetry.Report {
		return &telemetry.Report{Serial: "AP-1", SeqNo: 1, Clients: []telemetry.ClientRecord{{
			MAC: mac, UserAgents: uas, Apps: apps,
		}}}
	}
	neighbor := func(ssid, vendor string) *telemetry.Report {
		return &telemetry.Report{Serial: "AP-1", SeqNo: 1, Neighbors: []telemetry.NeighborRecord{{
			BSSID: bssid, SSID: ssid, Channel: 1, RSSIdB: -50, Vendor: vendor,
		}}}
	}
	crashes := func(cs ...telemetry.CrashRecord) *telemetry.Report {
		return &telemetry.Report{Serial: "AP-1", SeqNo: 1, Crashes: cs}
	}
	for _, tc := range []struct {
		name string
		a, b *telemetry.Report
	}{
		{"user agent holding a newline", client([]string{"x\n ua y"}), client([]string{"x", "y"})},
		{"app name holding a newline",
			client(nil, telemetry.AppUsageRecord{App: "a up=1 down=1 flows=1\n app b", UpBytes: 2, DownBytes: 2, Flows: 2}),
			client(nil, telemetry.AppUsageRecord{App: "a", UpBytes: 1, DownBytes: 1, Flows: 1},
				telemetry.AppUsageRecord{App: "b", UpBytes: 2, DownBytes: 2, Flows: 2})},
		{"SSID holding slashes", neighbor("a/0/1/-50/x", "x"), neighbor("a", "x/0/1/-50/x")},
		{"firmware holding slashes",
			crashes(telemetry.CrashRecord{Timestamp: 1, Kind: 1, Firmware: "f/0/0/0 2/1/g"}),
			crashes(telemetry.CrashRecord{Timestamp: 1, Kind: 1, Firmware: "f"},
				telemetry.CrashRecord{Timestamp: 2, Kind: 1, Firmware: "g"})},
	} {
		sa, sb := NewStore(), NewStore()
		sa.Ingest(tc.a)
		sb.Ingest(tc.b)
		if sa.Digest() == sb.Digest() {
			t.Errorf("%s: different stores digest identically", tc.name)
		}
	}
}

// TestLoadRejectsMalformed: short, over-long, trailing and
// count-inflated input is an error, and a failed Load leaves the store
// exactly as it was.
func TestLoadRejectsMalformed(t *testing.T) {
	valid := saveBytes(t, richStore())
	for name, data := range map[string][]byte{
		"magic only":      []byte(snapMagic),
		"truncated":       valid[:len(valid)/2],
		"torn end marker": valid[:len(valid)-1],
		"trailing bytes":  append(bytes.Clone(valid), 0),
		"inflated count":  inflateClientCount(valid),
		"no end marker":   append(bytes.Clone(valid[:len(valid)-len(snapEnd)]), "\xb7XXX"...),
	} {
		s := netStore([]int{3}, 1, 2)
		want := s.Digest()
		if err := s.Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := s.Digest(); got != want {
			t.Errorf("%s: failed Load changed the store", name)
		}
	}
}

// inflateClientCount rewrites a snapshot's leading client count to
// 2^40 — far more clients than the bytes that follow could hold.
func inflateClientCount(valid []byte) []byte {
	body := valid[len(snapMagic):]
	_, n := binary.Uvarint(body)
	out := append([]byte(snapMagic), binary.AppendUvarint(nil, 1<<40)...)
	return append(out, body[n:]...)
}

// TestLoadLegacyGob: a gob snapshot written by an earlier build still
// loads, to the same digest and migration bookkeeping as its source.
func TestLoadLegacyGob(t *testing.T) {
	src := richStore()
	dst := NewStoreShards(8)
	if err := dst.Load(bytes.NewReader(legacyGob(t, src))); err != nil {
		t.Fatal(err)
	}
	if dst.Digest() != src.Digest() {
		t.Fatal("legacy gob snapshot loads to a different digest")
	}
	if !reflect.DeepEqual(dst.PartedIDs(), src.PartedIDs()) || !dst.HasAbsorbed("tok-rich") {
		t.Fatal("legacy gob snapshot lost migration bookkeeping")
	}
}

// TestDurableRecoversLegacyFiles: a durable directory left by an
// earlier build — newest checkpoint in legacy gob, and a WAL absorb
// record (0x03) whose slice is legacy gob — recovers to the same
// digest as a control store fed the same data.
func TestDurableRecoversLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	d, _ := mustOpenDurable(t, dir, DurableOptions{})
	for q := uint64(1); q <= 3; q++ {
		if err := d.IngestBatch([]*telemetry.Report{netReport(1, 0, q), netReport(1, 1, q)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, checkpointGlob))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints = %v, %v", ckpts, err)
	}
	if err := os.WriteFile(ckpts[0], legacyGob(t, d.Store), 0o644); err != nil {
		t.Fatal(err)
	}
	slice := legacyGob(t, netStore([]int{2}, 2, 3))
	if ok, err := d.AbsorbSnapshot("tok-legacy", []uint64{2}, slice); err != nil || !ok {
		t.Fatalf("AbsorbSnapshot = %v, %v", ok, err)
	}
	if err := d.IngestBatch([]*telemetry.Report{netReport(1, 0, 4)}, nil); err != nil {
		t.Fatal(err)
	}
	d.Close() // crash stand-in: no checkpoint after the absorb

	control := netStore([]int{1, 2}, 2, 3)
	control.Ingest(netReport(1, 0, 4))

	d2, stats := mustOpenDurable(t, dir, DurableOptions{})
	defer d2.Close()
	if stats.Fallbacks != 0 || stats.BadRecords != 0 || stats.CheckpointFile != ckpts[0] {
		t.Fatalf("recovery stats = %+v, want the legacy checkpoint loaded and no bad records", stats)
	}
	if got, want := d2.Digest(), control.Digest(); got != want {
		t.Fatalf("recovered digest %s, control %s", got, want)
	}
	if !d2.HasAbsorbed("tok-legacy") {
		t.Fatal("legacy absorb record's token lost")
	}
}

// snapshotBenchStore is the fixed-size store the whole-store benchmarks
// read: 256 APs of benchReport density (3,072 clients) over 20 report
// windows, so every series holds 20 windows of samples.
func snapshotBenchStore() *Store {
	s := NewStore()
	for w := 1; w <= 20; w++ {
		for ap := 0; ap < 256; ap++ {
			s.Ingest(benchReport(ap, uint64(w)))
		}
	}
	return s
}

// BenchmarkStoreSnapshot times the three whole-store reads at a fixed
// store size: Save (binary encode), Load (decode and stripe swap) and
// Digest. save reports the snapshot size per client.
func BenchmarkStoreSnapshot(b *testing.B) {
	s := snapshotBenchStore()
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := s.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len())/float64(s.NumClients()), "bytes/client")
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := NewStore().Load(bytes.NewReader(snap.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchDigest = s.Digest()
		}
	})
}

var benchDigest string
