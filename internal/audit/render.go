package audit

import (
	"fmt"
	"io"

	"qoadvisor/internal/api"
)

// The text form of the audit answers: what `qoserved audit` prints on
// stdout, rendered from the same api values the /v2/audit routes send
// as JSON. Output is deterministic for a given journal, so runs can be
// diffed; scan counters are the caller's to report elsewhere.

// printer keeps the first write error, so a renderer checks once.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// WriteRecord prints one records row.
func WriteRecord(w io.Writer, rec api.AuditRecord) error {
	_, err := fmt.Fprintf(w, "%10d  %-13s %s\n", rec.LSN, rec.Type, rec.Summary)
	return err
}

// WriteDecision prints a decision trace.
func WriteDecision(w io.Writer, d api.AuditDecisionResponse) error {
	p := printer{w: w}
	if !d.Found {
		p.f("event %s: no rank record in the journal (never ranked, or compacted away)\n", d.EventID)
		return p.err
	}
	p.f("event:    %s\n", d.EventID)
	p.f("decision: lsn=%d prob=%.4f ctxFeatures=%d actFeatures=%d\n", d.RankLSN, d.Prob, d.CtxIDs, d.ActIDs)
	for _, rw := range d.Rewards {
		p.f("reward:   lsn=%d value=%.4f\n", rw.LSN, rw.Value)
	}
	if len(d.Rewards) == 0 {
		p.f("reward:   none journaled\n")
	}
	if d.TrainedAtLSN > 0 {
		p.f("trained:  by lsn=%d at the latest (first train mark after the last reward)\n", d.TrainedAtLSN)
	}
	for _, lr := range d.Lineage {
		p.f("lineage:  lsn=%d event=%s value=%.4f\n", lr.LSN, lr.EventID, lr.Value)
	}
	if d.LineageTruncated {
		p.f("lineage:  (truncated at cap)\n")
	}
	return p.err
}

// WriteTemplate prints a template's steering history.
func WriteTemplate(w io.Writer, t api.AuditTemplateResponse) error {
	p := printer{w: w}
	p.f("template: %016x\n", uint64(t.TemplateHash))
	for _, ev := range t.Events {
		switch ev.Kind {
		case "hint":
			p.f("%10d  hint flip=%s day=%d generation=%d\n", ev.LSN, ev.Flip, ev.Day, ev.Gen)
		case "hint_removed":
			p.f("%10d  hint removed (generation %d)\n", ev.LSN, ev.Gen)
		case "quarantine":
			kind := "transition"
			if ev.Snapshot {
				kind = "checkpoint re-journal"
			}
			p.f("%10d  quarantine state=%s (%s)\n", ev.LSN, ev.State, kind)
		case "quarantine_cleared":
			p.f("%10d  quarantine cleared\n", ev.LSN)
		}
	}
	p.f("history:  %d events from %d rollovers, %d quarantine records\n", len(t.Events), t.Rollovers, t.QuarantineRecords)
	return p.err
}

// WriteAsOf prints an as-of reconstruction's summary; model names the
// snapshot file the replay was offered as its seed.
func WriteAsOf(w io.Writer, a api.AuditAsOfResponse, model string) error {
	p := printer{w: w}
	p.f("asof:     lsn=%d\n", a.LSN)
	p.f("seed:     snapshot=%v watermark=%d (%s)\n", a.SnapshotSeeded, a.FromLSN, model)
	r := a.Replay
	p.f("replayed: %d records (%d ranks, %d rewards, %d train marks -> %d training runs over %d events)\n",
		r.Records, r.Ranks, r.Rewards, r.TrainMarks, r.TrainRuns, r.TrainedEvents)
	if a.Hints > 0 {
		p.f("hints:    %d active (generation %d)\n", a.Hints, a.HintGen)
	}
	if a.Quarantined > 0 {
		p.f("held:     %d templates in a durable safeguard state\n", a.Quarantined)
	}
	p.f("model:    %d bytes, sha256=%s\n", a.SnapshotBytes, a.SnapshotSHA256)
	return p.err
}
