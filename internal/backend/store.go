package backend

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"wlanscale/internal/apps"
	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry"
)

// ClientAggregate is everything the backend knows about one client MAC,
// merged across every AP that reported it (roaming aggregation,
// Section 2.3).
type ClientAggregate struct {
	MAC  dot11.MAC
	Band dot11.Band
	// RSSIdB is the most recent signal report.
	RSSIdB int32
	Caps   dot11.Capabilities
	// Apps maps application name to byte totals.
	Apps map[string]*telemetry.AppUsageRecord
	// UserAgents and DHCPFingerprints feed OS inference.
	UserAgents       []string
	DHCPFingerprints [][]byte
	// APs counts how many distinct devices reported this client.
	APs map[string]bool
}

// Total returns the client's total bytes.
func (c *ClientAggregate) Total() uint64 {
	var t uint64
	for _, a := range c.Apps {
		t += a.UpBytes + a.DownBytes
	}
	return t
}

// OS runs the Section 3.2 inference over the aggregate's artifacts.
func (c *ClientAggregate) OS() apps.OS {
	return apps.InferOS(c.MAC.OUI(), c.DHCPFingerprints, c.UserAgents)
}

// LinkKey identifies a directed AP-AP link.
type LinkKey struct {
	From string // reporting device serial
	To   dot11.MAC
	Band dot11.Band
}

// LinkSeries is the stored window series for one link.
type LinkSeries struct {
	Key     LinkKey
	Sent    []uint32
	Deliver []uint32
}

// MeanDelivery returns the series' average delivery ratio.
func (l *LinkSeries) MeanDelivery() float64 {
	var s, d float64
	for i := range l.Sent {
		s += float64(l.Sent[i])
		d += float64(l.Deliver[i])
	}
	if s == 0 {
		return 0
	}
	return d / s
}

// Ratios returns the per-window delivery ratios.
func (l *LinkSeries) Ratios() []float64 {
	out := make([]float64, len(l.Sent))
	for i := range l.Sent {
		if l.Sent[i] > 0 {
			out[i] = float64(l.Deliver[i]) / float64(l.Sent[i])
		}
	}
	return out
}

// RadioSample is one stored counter snapshot.
type RadioSample struct {
	Timestamp uint64
	Band      dot11.Band
	Channel   int
	Busy      float64
	Decodable float64
	Tx        float64
}

// ScanPoint is one stored scanning-radio observation.
type ScanPoint struct {
	Timestamp uint64
	Band      dot11.Band
	Channel   int
	Busy      float64
	Decodable float64
}

// NeighborEntry is a deduplicated overheard BSS for one device.
type NeighborEntry struct {
	BSSID   dot11.BSSID
	SSID    string
	Band    dot11.Band
	Channel int
	RSSIdB  int32
	Vendor  string
}

// DefaultShards is the stripe count of NewStore. 32 stripes keep
// contention negligible up to typical harvest-worker counts while the
// per-store footprint stays small.
const DefaultShards = 32

// clientShard is one stripe of the MAC-keyed client aggregation.
type clientShard struct {
	mu      sync.Mutex
	clients map[dot11.MAC]*ClientAggregate
}

// deviceShard is one stripe of the serial-keyed device data. Everything
// a single report writes outside the client map lives in the reporting
// device's shard, so dedup and series appends for one serial are
// serialized by one lock.
type deviceShard struct {
	// ingests counts reports Ingest routed to this stripe (accepted,
	// not deduplicated) — the per-stripe load signal EnableObs exports.
	// Merge is not attributed per stripe, so after merges the stripe
	// sum can trail the store total. Atomic, so readers never touch
	// the stripe lock.
	ingests   atomic.Int64
	mu        sync.Mutex
	seen      map[string]uint64 // highest seq per serial
	radio     map[string][]RadioSample
	scans     map[string][]ScanPoint
	neighbors map[string]map[dot11.BSSID]NeighborEntry
	crashes   map[string][]telemetry.CrashRecord
	links     map[LinkKey]*LinkSeries // keyed by From == shard serial
}

// Store is the backend datastore. It is safe for concurrent use: client
// aggregates are lock-striped by MAC and device series by serial.
type Store struct {
	clientShards []*clientShard
	deviceShards []*deviceShard
	mask         uint64

	ingests atomic.Int64
	dupes   atomic.Int64

	// Migration bookkeeping (see migrate.go). migMu guards both maps;
	// it is only ever taken alone or inside the stripe locks
	// (encodeSnapshotLocked), never the other way around. absorbMu
	// serializes whole Absorb operations so two concurrent absorbs of
	// the same token cannot both pass the dedup check and double-merge.
	migMu    sync.Mutex
	absorbed map[string]bool
	parted   map[uint64]bool
	absorbMu sync.Mutex

	// saveDur, when EnableObs attached a registry, times Save (binary
	// snapshot encode and write). Nil (no-op) otherwise.
	saveDur *obs.Histogram

	// tracer, when EnableTrace attached one, records a store.ingest span
	// for every sampled report folded in. Nil (no-op) otherwise.
	tracer *trace.Tracer
}

// serialSeed fixes the serial hash across stores so sharding is
// reproducible within a process (determinism never depends on it: reads
// re-sort).
var serialSeed = maphash.MakeSeed()

// NewStore creates an empty store with DefaultShards stripes.
func NewStore() *Store { return NewStoreShards(DefaultShards) }

// NewStoreShards creates an empty store with n lock stripes (rounded up
// to a power of two; n <= 1 yields a single-mutex store, useful as the
// contention baseline in benchmarks).
func NewStoreShards(n int) *Store {
	shards := 1
	for shards < n {
		shards <<= 1
	}
	s := &Store{
		clientShards: make([]*clientShard, shards),
		deviceShards: make([]*deviceShard, shards),
		mask:         uint64(shards - 1),
	}
	for i := 0; i < shards; i++ {
		s.clientShards[i] = &clientShard{clients: make(map[dot11.MAC]*ClientAggregate)}
		s.deviceShards[i] = &deviceShard{
			seen:      make(map[string]uint64),
			radio:     make(map[string][]RadioSample),
			scans:     make(map[string][]ScanPoint),
			neighbors: make(map[string]map[dot11.BSSID]NeighborEntry),
			crashes:   make(map[string][]telemetry.CrashRecord),
			links:     make(map[LinkKey]*LinkSeries),
		}
	}
	return s
}

// NumShards returns the stripe count.
func (s *Store) NumShards() int { return len(s.clientShards) }

// clientShardFor picks the stripe for a client MAC. MACs from one OUI
// differ only in the low 24 bits, so mix the packed value before
// masking.
func (s *Store) clientShardFor(mac dot11.MAC) *clientShard {
	return s.clientShards[mix64(mac.Uint64())&s.mask]
}

func (s *Store) deviceShardFor(serial string) *deviceShard {
	return s.deviceShards[maphash.String(serialSeed, serial)&s.mask]
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Ingest merges one report. Re-delivered reports (same serial, seqno not
// above the high-water mark) are dropped, making harvest idempotent.
// Reports for different serials take disjoint device stripes and
// contend on a client stripe only when their clients hash together.
func (s *Store) Ingest(r *telemetry.Report) {
	sp := s.tracer.Start(trace.ID(r.TraceID), trace.StageStoreIngest)
	sp.SetSerial(r.Serial)
	sp.SetSeq(r.SeqNo)
	defer sp.End()
	ds := s.deviceShardFor(r.Serial)
	ds.mu.Lock()
	if r.SeqNo != 0 {
		if hw, ok := ds.seen[r.Serial]; ok && r.SeqNo <= hw {
			ds.mu.Unlock()
			s.dupes.Add(1)
			return
		}
		ds.seen[r.Serial] = r.SeqNo
	}

	for _, rs := range r.Radios {
		cyc := float64(rs.CycleUS)
		if cyc == 0 {
			continue
		}
		ds.radio[r.Serial] = append(ds.radio[r.Serial], RadioSample{
			Timestamp: r.Timestamp,
			Band:      rs.Band,
			Channel:   rs.Channel,
			Busy:      float64(rs.RxClearUS) / cyc,
			Decodable: float64(rs.Rx11US) / cyc,
			Tx:        float64(rs.TxUS) / cyc,
		})
	}
	for _, l := range r.LinkWindows {
		k := LinkKey{From: r.Serial, To: l.Peer, Band: l.Band}
		series, ok := ds.links[k]
		if !ok {
			series = &LinkSeries{Key: k}
			ds.links[k] = series
		}
		series.Sent = append(series.Sent, l.Sent)
		series.Deliver = append(series.Deliver, l.Delivered)
	}
	for _, sc := range r.ScanSamples {
		ds.scans[r.Serial] = append(ds.scans[r.Serial], ScanPoint{
			Timestamp: r.Timestamp,
			Band:      sc.Band,
			Channel:   sc.Channel,
			Busy:      float64(sc.BusyPermille) / 1000,
			Decodable: float64(sc.DecodablePermille) / 1000,
		})
	}
	if len(r.Crashes) > 0 {
		ds.crashes[r.Serial] = append(ds.crashes[r.Serial], r.Crashes...)
	}
	for _, n := range r.Neighbors {
		m, ok := ds.neighbors[r.Serial]
		if !ok {
			m = make(map[dot11.BSSID]NeighborEntry)
			ds.neighbors[r.Serial] = m
		}
		m[n.BSSID] = NeighborEntry{
			BSSID: n.BSSID, SSID: n.SSID, Band: n.Band,
			Channel: n.Channel, RSSIdB: n.RSSIdB, Vendor: n.Vendor,
		}
	}
	ds.mu.Unlock()

	for _, c := range r.Clients {
		cs := s.clientShardFor(c.MAC)
		cs.mu.Lock()
		agg, ok := cs.clients[c.MAC]
		if !ok {
			agg = &ClientAggregate{
				MAC:  c.MAC,
				Apps: make(map[string]*telemetry.AppUsageRecord),
				APs:  make(map[string]bool),
			}
			cs.clients[c.MAC] = agg
		}
		agg.Band = c.Band
		agg.RSSIdB = c.RSSIdB
		agg.Caps = c.Caps
		agg.APs[r.Serial] = true
		for _, ua := range c.UserAgents {
			agg.addUA(ua)
		}
		for _, fp := range c.DHCPFingerprints {
			agg.addFP(fp)
		}
		for _, a := range c.Apps {
			cur, ok := agg.Apps[a.App]
			if !ok {
				cur = &telemetry.AppUsageRecord{App: a.App}
				agg.Apps[a.App] = cur
			}
			cur.UpBytes += a.UpBytes
			cur.DownBytes += a.DownBytes
			cur.Flows += a.Flows
		}
		cs.mu.Unlock()
	}

	// Counted only once every stripe write has landed, so an observer
	// that sees the count sees the report's client aggregates too.
	// Cross-shard reads are still only eventually consistent while
	// ingests are in flight: a reader can interleave between stripe
	// updates of a single report.
	ds.ingests.Add(1)
	s.ingests.Add(1)
}

// EnableObs folds the store's counters into reg: "store.ingests",
// "store.dupes", "store.clients", and "store.shards" as func gauges,
// one "store.stripe.NN.ingests" gauge per device stripe (the load-skew
// signal — a hot stripe means serials are hashing together), and a
// "store.save_us" histogram timing snapshot encodes. Like everything in
// obs, these are observe-only; calling EnableObs changes no stored
// data. Call before serving (merakid does) — attaching the save
// histogram is not synchronized with a concurrent Save.
func (s *Store) EnableObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("store.ingests", func() int64 { return s.ingests.Load() })
	reg.RegisterFunc("store.dupes", func() int64 { return s.dupes.Load() })
	reg.RegisterFunc("store.clients", func() int64 { return int64(s.NumClients()) })
	reg.RegisterFunc("store.shards", func() int64 { return int64(s.NumShards()) })
	for i := range s.deviceShards {
		ds := s.deviceShards[i]
		reg.RegisterFunc(obs.Indexed("store.stripe", i, "ingests"),
			func() int64 { return ds.ingests.Load() })
	}
	s.saveDur = reg.Histogram("store.save_us", obs.DurationBuckets)
}

// EnableTrace attaches a tracer: every sampled report folded in by
// Ingest records a store.ingest span (trace ID read from the report,
// duration covering all stripe writes). Observe-only — stored data and
// digests are unchanged. Call before serving; attaching is not
// synchronized with concurrent Ingest.
func (s *Store) EnableTrace(t *trace.Tracer) { s.tracer = t }

func (c *ClientAggregate) addUA(ua string) {
	for _, e := range c.UserAgents {
		if e == ua {
			return
		}
	}
	c.UserAgents = append(c.UserAgents, ua)
}

func (c *ClientAggregate) addFP(fp []byte) {
	for _, e := range c.DHCPFingerprints {
		if string(e) == string(fp) {
			return
		}
	}
	cp := make([]byte, len(fp))
	copy(cp, fp)
	c.DHCPFingerprints = append(c.DHCPFingerprints, cp)
}

// Merge folds a partial store into s. The caller hands over ownership
// of p: the parallel epoch pipeline builds one partial per network and
// merges them in network-index order, so every map and slice is folded
// in a deterministic sequence (keys are visited sorted, making merge
// output independent of p's map iteration order).
func (s *Store) Merge(p *Store) {
	// Client aggregates, in MAC order.
	for _, agg := range p.Clients() {
		cs := s.clientShardFor(agg.MAC)
		cs.mu.Lock()
		dst, ok := cs.clients[agg.MAC]
		if !ok {
			// First sighting: adopt the partial's aggregate wholesale.
			cs.clients[agg.MAC] = agg
			cs.mu.Unlock()
			continue
		}
		dst.Band = agg.Band
		dst.RSSIdB = agg.RSSIdB
		dst.Caps = agg.Caps
		for serial := range agg.APs {
			dst.APs[serial] = true
		}
		for _, ua := range agg.UserAgents {
			dst.addUA(ua)
		}
		for _, fp := range agg.DHCPFingerprints {
			dst.addFP(fp)
		}
		names := make([]string, 0, len(agg.Apps))
		for name := range agg.Apps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := agg.Apps[name]
			cur, ok := dst.Apps[name]
			if !ok {
				cur = &telemetry.AppUsageRecord{App: name}
				dst.Apps[name] = cur
			}
			cur.UpBytes += a.UpBytes
			cur.DownBytes += a.DownBytes
			cur.Flows += a.Flows
		}
		cs.mu.Unlock()
	}

	// Device-keyed series, in serial (and link-key) order per stripe.
	for _, pd := range p.deviceShards {
		for _, serial := range sortedKeys(nil, pd.seen) {
			seq := pd.seen[serial]
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			if seq > ds.seen[serial] {
				ds.seen[serial] = seq
			}
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(nil, pd.radio) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.radio[serial] = append(ds.radio[serial], pd.radio[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(nil, pd.scans) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.scans[serial] = append(ds.scans[serial], pd.scans[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(nil, pd.crashes) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			ds.crashes[serial] = append(ds.crashes[serial], pd.crashes[serial]...)
			ds.mu.Unlock()
		}
		for _, serial := range sortedKeys(nil, pd.neighbors) {
			ds := s.deviceShardFor(serial)
			ds.mu.Lock()
			m, ok := ds.neighbors[serial]
			if !ok {
				ds.neighbors[serial] = pd.neighbors[serial]
			} else {
				for bssid, e := range pd.neighbors[serial] {
					m[bssid] = e
				}
			}
			ds.mu.Unlock()
		}
		keys := make([]LinkKey, 0, len(pd.links))
		for k := range pd.links {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, cmpLinkKey)
		for _, k := range keys {
			src := pd.links[k]
			ds := s.deviceShardFor(k.From)
			ds.mu.Lock()
			series, ok := ds.links[k]
			if !ok {
				ds.links[k] = src
			} else {
				series.Sent = append(series.Sent, src.Sent...)
				series.Deliver = append(series.Deliver, src.Deliver...)
			}
			ds.mu.Unlock()
		}
	}

	// Migration bookkeeping folds as a union: a merged view is "parted"
	// or "already absorbed" if any contributing partial was.
	p.migMu.Lock()
	tokens := make([]string, 0, len(p.absorbed))
	for tok := range p.absorbed {
		tokens = append(tokens, tok)
	}
	ids := make([]uint64, 0, len(p.parted))
	for id := range p.parted {
		ids = append(ids, id)
	}
	p.migMu.Unlock()
	for _, tok := range tokens {
		s.MarkAbsorbed(tok)
	}
	s.Part(ids)

	s.ingests.Add(p.ingests.Load())
	s.dupes.Add(p.dupes.Load())
}

// sortedKeys appends m's keys to dst and sorts them.
func sortedKeys[V any](dst []string, m map[string]V) []string {
	dst = slices.Grow(dst, len(m))
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// cmpLinkKey orders links by reporting serial, band, then peer.
func cmpLinkKey(a, b LinkKey) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Band, b.Band); c != 0 {
		return c
	}
	return cmp.Compare(a.To.Uint64(), b.To.Uint64())
}

// Stats summarizes ingestion.
func (s *Store) Stats() (ingests, dupes int) {
	return int(s.ingests.Load()), int(s.dupes.Load())
}

// NumClients returns the number of distinct client MACs.
func (s *Store) NumClients() int {
	n := 0
	for _, cs := range s.clientShards {
		cs.mu.Lock()
		n += len(cs.clients)
		cs.mu.Unlock()
	}
	return n
}

// Clients returns the aggregates explicitly sorted by MAC. The sort is
// load-bearing: downstream table rows must not depend on map iteration
// order or on how MACs happen to hash across shards.
func (s *Store) Clients() []*ClientAggregate {
	var out []*ClientAggregate
	for _, cs := range s.clientShards {
		cs.mu.Lock()
		for _, c := range cs.clients {
			out = append(out, c)
		}
		cs.mu.Unlock()
	}
	sortByMAC(out)
	return out
}

func sortByMAC(cs []*ClientAggregate) {
	slices.SortFunc(cs, func(a, b *ClientAggregate) int { return cmp.Compare(a.MAC.Uint64(), b.MAC.Uint64()) })
}

// Links returns every stored link series, sorted for determinism.
func (s *Store) Links() []*LinkSeries {
	var out []*LinkSeries
	for _, ds := range s.deviceShards {
		ds.mu.Lock()
		for _, l := range ds.links {
			out = append(out, l)
		}
		ds.mu.Unlock()
	}
	slices.SortFunc(out, func(x, y *LinkSeries) int { return cmpLinkKey(x.Key, y.Key) })
	return out
}

// RadioSeries returns a device's stored counter samples.
func (s *Store) RadioSeries(serial string) []RadioSample {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.radio[serial]
}

// RadioSerials returns the serials with radio samples, sorted.
func (s *Store) RadioSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]RadioSample { return ds.radio })
}

// ScanSeries returns a device's stored scan points.
func (s *Store) ScanSeries(serial string) []ScanPoint {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.scans[serial]
}

// ScanSerials returns the serials with scan data, sorted.
func (s *Store) ScanSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]ScanPoint { return ds.scans })
}

// serialKeys collects the keys of one serial-keyed map across all
// shards, sorted.
func serialKeys[V any](shards []*deviceShard, pick func(*deviceShard) map[string]V) []string {
	var out []string
	for _, ds := range shards {
		ds.mu.Lock()
		for k := range pick(ds) {
			out = append(out, k)
		}
		ds.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Neighbors returns a device's deduplicated neighbor table, sorted by
// BSSID.
func (s *Store) Neighbors(serial string) []NeighborEntry {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	m := ds.neighbors[serial]
	out := make([]NeighborEntry, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	ds.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].BSSID.Uint64() < out[j].BSSID.Uint64() })
	return out
}

// NeighborSerials returns the serials with neighbor tables, sorted.
func (s *Store) NeighborSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string]map[dot11.BSSID]NeighborEntry { return ds.neighbors })
}

// Crashes returns a device's stored crash records.
func (s *Store) Crashes(serial string) []telemetry.CrashRecord {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.crashes[serial]
}

// CrashSerials returns the serials with crash reports, sorted.
func (s *Store) CrashSerials() []string {
	return serialKeys(s.deviceShards, func(ds *deviceShard) map[string][]telemetry.CrashRecord { return ds.crashes })
}

// NeighborCount returns the size of a device's deduplicated neighbor
// table (both bands).
func (s *Store) NeighborCount(serial string) int {
	ds := s.deviceShardFor(serial)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return len(ds.neighbors[serial])
}

// Save writes a binary snapshot (snapshot.go). Every stripe lock is
// held while the store is encoded into in-memory chunks: the encode
// reads live aggregates and series, so releasing the locks earlier
// would let a concurrent Ingest mutate a map mid-encode (merakid
// snapshots while serve goroutines are still ingesting). The locks
// drop before the chunks are written to w, so a checkpoint's file
// write never stalls ingest. Locks are acquired in index order,
// clients then devices; no other path holds more than one stripe at a
// time, so the ordering cannot deadlock.
func (s *Store) Save(w io.Writer) error {
	sp := obs.StartSpan(s.saveDur)
	defer sp.End()
	var chunks [][]byte
	newChunk := func() []byte { return make([]byte, 0, chunkSize+chunkSize/4) }
	c := chunker{b: newChunk(), sink: func(b []byte) []byte {
		chunks = append(chunks, b)
		return newChunk()
	}}
	unlock := s.lockAll()
	s.encodeSnapshotLocked(&c)
	unlock()
	for _, b := range append(chunks, c.b) {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// lockAll acquires every stripe lock in index order (clients then
// devices) and returns the matching unlock. No other path holds more
// than one stripe at a time, so the ordering cannot deadlock.
func (s *Store) lockAll() func() {
	for _, cs := range s.clientShards {
		cs.mu.Lock()
	}
	for _, ds := range s.deviceShards {
		ds.mu.Lock()
	}
	return func() {
		for _, ds := range s.deviceShards {
			ds.mu.Unlock()
		}
		for _, cs := range s.clientShards {
			cs.mu.Unlock()
		}
	}
}

// Load replaces the store contents from a snapshot: the binary stream
// Save writes, or the legacy gob form earlier builds wrote (old
// checkpoints and WAL absorb records stay readable after an upgrade).
// The whole input is decoded into private stripes first, so a corrupt
// snapshot returns an error and leaves the store as it was. The shard
// layout is never swapped out — the slice headers and mask are
// effectively immutable after NewStoreShards, which is what lets every
// other method read them without synchronization — so Load instead
// swaps each stripe's maps in under that stripe's lock. That makes Load
// race-free against concurrent Ingest and readers, but not atomic: an
// overlapping reader can observe a mix of old and new stripes while the
// load is in flight. Callers wanting a consistent view should load
// before serving (merakid does).
func (s *Store) Load(r io.Reader) error {
	b, err := readSnapshot(r)
	if err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	return s.loadBytes(b)
}

// readSnapshot reads r to the end — in one allocation when r knows its
// remaining length, as the bytes.Reader the router and WAL replay hand
// over does.
func readSnapshot(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		_, err := io.ReadFull(r, b)
		return b, err
	}
	return io.ReadAll(r)
}

func (s *Store) loadBytes(b []byte) error {
	tmp, err := s.decodeSnapshot(b)
	if err != nil {
		return fmt.Errorf("backend: load: %w", err)
	}
	for i, cs := range s.clientShards {
		cs.mu.Lock()
		cs.clients = tmp.clientShards[i].clients
		cs.mu.Unlock()
	}
	for i, ds := range s.deviceShards {
		src := tmp.deviceShards[i]
		ds.mu.Lock()
		ds.seen, ds.radio, ds.scans = src.seen, src.radio, src.scans
		ds.neighbors, ds.crashes, ds.links = src.neighbors, src.crashes, src.links
		ds.ingests.Store(0)
		ds.mu.Unlock()
	}
	s.ingests.Store(0)
	s.dupes.Store(0)
	s.migMu.Lock()
	s.absorbed, s.parted = tmp.absorbed, tmp.parted
	s.migMu.Unlock()
	return nil
}

// MergeSnapshot folds a snapshot into the store without resetting
// what it already holds — the shard-aware counterpart to Load. The
// scatter-gather router uses it to rebuild a cluster-wide view: each
// shard's snapshot decodes into a scratch store and merges through the
// same deterministic path the parallel epoch pipeline uses, so the
// merged digest is independent of fetch order. Ingestion counters are
// not part of a snapshot; digests never include counters, so
// equivalence is unaffected.
func (s *Store) MergeSnapshot(r io.Reader) error {
	b, err := readSnapshot(r)
	if err != nil {
		return fmt.Errorf("backend: merge snapshot: %w", err)
	}
	tmp, err := s.decodeSnapshot(b)
	if err != nil {
		return fmt.Errorf("backend: merge snapshot: %w", err)
	}
	s.Merge(tmp)
	return nil
}

// SaveFile writes the snapshot to a file path atomically: encode into
// a temp file in the target directory, fsync it, then rename over the
// destination. A crash at any point leaves either the old snapshot or
// the new one — never a torn file — which is what lets merakid's
// "save" query and -snapshot shutdown path run against a path that
// already holds the previous generation.
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := s.Save(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. Best effort: some filesystems refuse directory fsync,
// and the rename itself is already atomic.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// LoadFile reads a snapshot from a file path.
func (s *Store) LoadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return s.loadBytes(b)
}
