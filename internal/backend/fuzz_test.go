package backend

import (
	"bytes"
	"testing"
)

// FuzzStoreLoad feeds arbitrary bytes to Store.Load, seeded with valid,
// truncated, bit-flipped, count-inflated and trailing-byte binary
// snapshots plus a legacy gob one. The invariant is the recovery
// contract OpenDurable leans on: a load either succeeds or returns an
// error; it never panics, never allocates beyond what the input's
// length can justify, and on error the store is still usable (the
// caller falls back to an older checkpoint or an empty store and
// replays the WAL).
func FuzzStoreLoad(f *testing.F) {
	snap := func(n int) *Store {
		s := NewStore()
		for _, r := range durableReports(n) {
			s.Ingest(r)
		}
		return s
	}
	valid := saveBytes(f, snap(20))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(saveBytes(f, snap(1)))
	f.Add(saveBytes(f, richStore()))
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:len(valid)-1]) // torn final byte
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0xff // bit-flipped mid-stream
	f.Add(flipped)
	f.Add(inflateClientCount(valid))
	f.Add(append(bytes.Clone(valid), 0, 1, 2)) // trailing bytes
	f.Add(legacyGob(f, snap(20)))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		err := s.Load(bytes.NewReader(data))
		// Success or error, the store must remain usable: ingest a
		// report and read the aggregate back without blowing up.
		_ = err
		s.Ingest(usageReport("AP-FUZZ", 1_000_000, clientA, "Probe", 1, 1))
		if s.NumClients() == 0 {
			t.Fatal("store unusable after Load")
		}
		_ = s.Digest()
		if err == nil {
			_ = saveBytes(t, s)
		}
	})
}
