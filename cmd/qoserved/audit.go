package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// auditMode is the offline audit tool: read-only queries over a journal
// directory (live or copied — nothing is ever written there). Output is
// deterministic for a given journal, so runs can be diffed. -model and
// -audit-out are asof's: it rebuilds the model from the snapshot plus
// the journal, and -audit-out writes what it rebuilt.
type auditMode struct {
	walDir      string
	model       string // asof: the snapshot the replay starts from
	query       string // records | decision | template | asof
	event       string // decision, or a records filter
	hash        uint64 // template (64-bit hex), or a records filter
	hasTemplate bool
	lsn         uint64 // asof target (0 = journal end)
	from, to    uint64 // records LSN window
	tags        []byte // records type filter
	limit       int    // records row cap (0 = unlimited)
	out         string // asof: write the reconstructed snapshot here
}

func (m *auditMode) register(fs *flag.FlagSet) {
	fs.StringVar(&m.walDir, "wal-dir", "", "journal directory to read (required; never written)")
	fs.StringVar(&m.model, "model", "", "asof: model snapshot to start the replay from (empty = <wal-dir>/model.snap)")
	fs.StringVar(&m.event, "event", "", "event ID to trace (decision) or filter on (records)")
	fs.Func("template-hash", "64-bit hex template hash to query (template) or filter on (records)", func(v string) (err error) {
		m.hash, err = strconv.ParseUint(v, 16, 64)
		m.hasTemplate = true
		return err
	})
	fs.Uint64Var(&m.lsn, "lsn", 0, "asof: reconstruction LSN (0 = journal end)")
	fs.Uint64Var(&m.from, "audit-from", 0, "records: lowest LSN to return (0 = journal start)")
	fs.Uint64Var(&m.to, "audit-to", 0, "records: highest LSN to return (0 = journal end)")
	fs.Func("audit-type", "records: comma-separated record types (rank, reward_batch, train_mark, hint_rollover, quarantine)", func(v string) error {
		for _, name := range strings.Split(v, ",") {
			tag, err := walrec.ParseTag(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			m.tags = append(m.tags, tag)
		}
		return nil
	})
	fs.IntVar(&m.limit, "audit-limit", 0, "records: stop after this many rows (0 = unlimited)")
	fs.StringVar(&m.out, "audit-out", "", "asof: write the reconstructed snapshot to this path")
}

func (m *auditMode) validate(query string) error {
	m.query = query
	switch {
	case auditQueries[query] == nil:
		return fmt.Errorf("unknown query %q (want records, decision, template, or asof)", query)
	case query == "decision" && m.event == "":
		return errors.New("decision needs -event <event ID>")
	case query == "template" && !m.hasTemplate:
		return errors.New("template needs -template-hash <64-bit hex>")
	case m.walDir == "":
		return errors.New("needs -wal-dir <journal directory>")
	case m.limit < 0:
		return fmt.Errorf("-audit-limit %d: want 0 (unlimited) or a positive row cap", m.limit)
	}
	// Mirror the serving default: a WAL-backed server snapshots next to
	// the journal unless told otherwise.
	if m.model == "" {
		m.model = filepath.Join(m.walDir, serve.SnapshotFile)
	}
	return nil
}

var auditQueries = map[string]func(*auditMode, *audit.Engine) error{
	"records": (*auditMode).records, "decision": (*auditMode).decision,
	"template": (*auditMode).template, "asof": (*auditMode).asOf,
}

func (m *auditMode) run() error {
	eng, err := audit.Open(m.walDir)
	if err != nil {
		return err
	}
	return auditQueries[m.query](m, eng)
}

func (m *auditMode) records(eng *audit.Engine) error {
	st, err := eng.Run(audit.Query{
		EventID: m.event, FromLSN: m.from, ToLSN: m.to, Limit: m.limit,
		Tags: m.tags, Template: m.hash, HasTemplate: m.hasTemplate,
	}, func(res audit.Result) error { return audit.WriteRecord(os.Stdout, res.Row()) })
	if err != nil {
		return err
	}
	printScan("records", int(st.RecordsMatched), st)
	return nil
}

func (m *auditMode) decision(eng *audit.Engine) error {
	tr, err := eng.Trace(m.event)
	if err == nil {
		err = audit.WriteDecision(os.Stdout, tr)
	}
	if err == nil && tr.Found {
		printScan("decision", len(tr.Rewards)+len(tr.Lineage)+1, tr.Scan)
	}
	return err
}

func (m *auditMode) template(eng *audit.Engine) error {
	th, err := eng.Template(m.hash)
	if err == nil {
		err = audit.WriteTemplate(os.Stdout, th)
	}
	if err == nil {
		printScan("template", len(th.Events), th.Scan)
	}
	return err
}

func (m *auditMode) asOf(*audit.Engine) error {
	end, err := journalEnd(m.walDir)
	if err != nil {
		return err
	}
	lsn := m.lsn
	if lsn == 0 {
		if end == 0 {
			return fmt.Errorf("journal %s is empty; nothing to reconstruct", m.walDir)
		}
		lsn = end
	}
	res, snap, err := serve.AuditAsOf(wal.DirSource{Dir: m.walDir}, m.model, lsn)
	if apiErr := (*api.Error)(nil); errors.As(err, &apiErr) && lsn <= end {
		// RecoverAsOf's invalid_request for a bound within the journal:
		// the records the reconstruction needs were compacted behind a
		// checkpoint, whose snapshot alone covers them. A bound past the
		// journal's end is refused as it is on the route, with no remedy.
		return fmt.Errorf("%w; pass -model with the snapshot of the checkpoint that compacted it", err)
	}
	if err == nil {
		err = audit.WriteAsOf(os.Stdout, res, m.model)
	}
	if err != nil {
		return err
	}
	if m.out != "" {
		if err := wal.WriteFileAtomic(wal.OS{}, m.out, snap); err != nil {
			return err
		}
		fmt.Printf("written:  %s\n", m.out)
	}
	printScan("asof", int(res.Replay.Records), res.Scan)
	return nil
}

// journalEnd finds the journal's last LSN by replaying only the final
// segment (earlier segments contribute their record counts implicitly
// through the next segment's header). A torn tail is the crash
// artifact; the end is the last intact record.
func journalEnd(dir string) (uint64, error) {
	segs, err := wal.Segments(dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	before := segs[len(segs)-1].FirstLSN - 1
	info, err := wal.DirSource{Dir: dir}.Replay(before, func(uint64, []byte) error { return nil })
	return before + uint64(info.Records), err
}

// printScan reports what the query read versus skipped — the audit
// tool's own observability, on stderr so stdout stays diffable.
func printScan(mode string, rows int, st api.AuditScanStats) {
	fmt.Fprintf(os.Stderr,
		"audit %s: %d rows; segments %d scanned / %d skipped of %d; %d records scanned, %d matched\n",
		mode, rows, st.SegmentsScanned, st.SegmentsSkipped, st.SegmentsTotal,
		st.RecordsScanned, st.RecordsMatched)
}
