package backend

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry"
)

// Digest returns a SHA-256 over a canonical binary dump of everything
// the store holds: client aggregates, dedup high-water marks, and every
// device series. Two stores with the same contents digest identically
// regardless of shard count, ingestion interleaving across serials, or
// map iteration order — per-serial series order still matters, as it
// does for analyses. The crash-recovery proof harness compares a
// recovered daemon's digest against a never-crashed control run's;
// merakid serves it as the "digest" query.
//
// The dump uses the snapshot's field encoding (snapshot.go): every
// string is length-prefixed and every repeated field opens with its
// count, so two different stores can never produce the same dump.
// Entities are visited in key order — clients by MAC, device series by
// serial, links by (from, band, to) — and set-like fields (apps, user
// agents, DHCP fingerprints, AP sets, neighbor tables) are sorted,
// because their in-memory order depends on which AP's report arrived
// first when several APs see one client. DESIGN.md §7 defines the
// layout. Migration bookkeeping (absorbed tokens, parted networks) is
// not data and is not hashed.
//
// Digest takes every stripe lock, like Save; concurrent ingests stall
// for the walk.
func (s *Store) Digest() string {
	defer s.lockAll()()
	h := sha256.New()
	d := chunker{b: make([]byte, 0, chunkSize+chunkSize/4), sink: func(b []byte) []byte {
		h.Write(b)
		return b[:0]
	}}

	n := 0
	for _, cs := range s.clientShards {
		n += len(cs.clients)
	}
	clients := make([]*ClientAggregate, 0, n)
	for _, cs := range s.clientShards {
		for _, c := range cs.clients {
			clients = append(clients, c)
		}
	}
	sortByMAC(clients)
	d.b = binary.AppendUvarint(d.b, uint64(len(clients)))
	var strs []string
	var blobs [][]byte
	for _, c := range clients {
		b := append(d.b, c.MAC[:]...)
		b = binary.AppendUvarint(b, uint64(c.Band))
		b = binary.AppendVarint(b, int64(c.RSSIdB))
		caps := c.Caps.Marshal()
		b = append(b, caps[:]...)
		strs = sortedKeys(strs[:0], c.Apps)
		b = binary.AppendUvarint(b, uint64(len(strs)))
		for _, name := range strs {
			b = appendApp(b, c.Apps[name])
		}
		strs = append(strs[:0], c.UserAgents...)
		slices.Sort(strs)
		b = appendStrings(b, strs)
		blobs = append(blobs[:0], c.DHCPFingerprints...)
		slices.SortFunc(blobs, bytes.Compare)
		b = binary.AppendUvarint(b, uint64(len(blobs)))
		for _, fp := range blobs {
			b = appendBlob(b, fp)
		}
		strs = sortedKeys(strs[:0], c.APs)
		d.b = appendStrings(b, strs)
		d.spill()
	}

	digestSerialMap(&d, s.deviceShards, func(ds *deviceShard) map[string]uint64 { return ds.seen }, binary.AppendUvarint)
	digestSerialMap(&d, s.deviceShards, func(ds *deviceShard) map[string][]RadioSample { return ds.radio }, appendRadio)
	digestSerialMap(&d, s.deviceShards, func(ds *deviceShard) map[string][]ScanPoint { return ds.scans }, appendScans)
	digestSerialMap(&d, s.deviceShards, func(ds *deviceShard) map[string][]telemetry.CrashRecord { return ds.crashes }, appendCrashes)
	var nbrs []NeighborEntry
	digestSerialMap(&d, s.deviceShards, func(ds *deviceShard) map[string]map[dot11.BSSID]NeighborEntry { return ds.neighbors },
		func(b []byte, m map[dot11.BSSID]NeighborEntry) []byte {
			nbrs = nbrs[:0]
			for _, e := range m {
				nbrs = append(nbrs, e)
			}
			slices.SortFunc(nbrs, func(x, y NeighborEntry) int { return cmp.Compare(x.BSSID.Uint64(), y.BSSID.Uint64()) })
			b = binary.AppendUvarint(b, uint64(len(nbrs)))
			for _, e := range nbrs {
				b = appendNeighbor(b, e)
			}
			return b
		})

	var links []*LinkSeries
	for _, ds := range s.deviceShards {
		for _, l := range ds.links {
			links = append(links, l)
		}
	}
	slices.SortFunc(links, func(x, y *LinkSeries) int { return cmpLinkKey(x.Key, y.Key) })
	d.b = binary.AppendUvarint(d.b, uint64(len(links)))
	for _, l := range links {
		d.b = appendLink(d.b, l)
		d.spill()
	}

	h.Write(d.b)
	return hex.EncodeToString(h.Sum(nil))
}

// digestSerialMap hashes one serial-keyed device map across all stripes
// in serial order: a count, then (serial, value) pairs.
func digestSerialMap[V any](d *chunker, shards []*deviceShard, pick func(*deviceShard) map[string]V, enc func([]byte, V) []byte) {
	type entry struct {
		serial string
		v      V
	}
	var es []entry
	for _, ds := range shards {
		for serial, v := range pick(ds) {
			es = append(es, entry{serial, v})
		}
	}
	slices.SortFunc(es, func(x, y entry) int { return cmp.Compare(x.serial, y.serial) })
	d.b = binary.AppendUvarint(d.b, uint64(len(es)))
	for _, e := range es {
		d.b = enc(appendString(d.b, e.serial), e.v)
		d.spill()
	}
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}
