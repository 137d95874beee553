package api

// WAL replication stream wire format (GET /v2/wal?from=<lsn>).
//
// The response body is a journal segment, byte for byte the format of
// the primary's wal-*.seg files: one 16-byte segment header (magic
// "QOWAL001", little-endian uint64 first LSN = from+1), then one frame
// per journal record in LSN order,
//
//	[uint32 payload length][uint32 CRC32-Castagnoli of payload][payload]
//
// all little-endian, copied from the journal as stored. LSNs are dense,
// so record i carries first LSN + i. A torn connection shows as a short
// frame and a corrupted one as a CRC mismatch; either way the follower
// drops the connection and reconnects with from=<last applied LSN>.
// The follower decodes the body with the journal's own reader
// (wal.NewSegmentReader).
//
// The stream is chunked and long-polls at the tail: the primary holds
// the response open while new records arrive, then closes it after an
// idle window or a bounded stream duration, and the follower simply
// reconnects. Response headers:
//
//	X-Qoadvisor-Wal-Frontier  the primary's durable frontier at stream
//	                          start (records beyond it are never shipped)
//	X-Qoadvisor-Wal-First     the oldest retained LSN (0 = empty log)
//
// The content type names the format; a follower refuses a body of any
// other type and applies nothing from it.
const (
	WALFrontierHeader    = "X-Qoadvisor-Wal-Frontier"
	WALFirstHeader       = "X-Qoadvisor-Wal-First"
	WALStreamContentType = "application/x-qoadvisor-wal-segment"
)
