// Package backend implements the Meraki backend's data layer (paper
// Section 2): ingestion of device reports with (serial, seqno)
// deduplication, aggregation of usage by client MAC across access
// points (to account for roaming), per-device time series of radio
// counters, neighbor tables, link-probe windows and scan samples, HMAC
// anonymization of identifiers for analysis exports, and snapshot
// persistence as a binary stream (legacy gob snapshots still load).
//
// The store is lock-striped: client aggregates shard by MAC and
// device-keyed series shard by serial, so concurrent harvest workers
// ingesting reports for different devices rarely contend. Every read
// accessor returns results in an explicitly sorted order, so downstream
// analyses are independent of both map iteration order and the shard
// count.
package backend
