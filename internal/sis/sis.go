// Package sis implements the Stats & Insight Service of the paper (§4.4):
// the versioned store through which QO-Advisor's hints reach the SCOPE
// optimizer. Hint files map job-template identities to single rule flips;
// SIS validates the file format before installing a version, manages
// version history, and answers compile-time lookups so that "the
// generated hint is applied to the next occurrence of the job template".
package sis

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/strarena"
)

// Hint steers one job template with one rule flip.
type Hint struct {
	TemplateHash uint64
	TemplateID   string
	Flip         rules.Flip
	// Day records when the hint was generated (pipeline date).
	Day int
}

// File is one uploadable hint file.
type File struct {
	Day   int
	Hints []Hint
}

// Serialize renders the file in the SIS exchange format:
//
//	qoadvisor-hints v1 day=<d>
//	<templateHash>,<templateID>,<flip>,<day>
func Serialize(w io.Writer, f File) error {
	if _, err := fmt.Fprintf(w, "qoadvisor-hints v1 day=%d\n", f.Day); err != nil {
		return err
	}
	for _, h := range f.Hints {
		if _, err := fmt.Fprintf(w, "%016x,%s,%s,%d\n", h.TemplateHash, h.TemplateID, h.Flip, h.Day); err != nil {
			return err
		}
	}
	return nil
}

// Parse reads and validates the SIS exchange format. Fields are parsed
// from the scanner's buffer and only the template ID is copied out, into
// one arena for the file (internal/strarena): every ID is a substring of
// a few long strings, each twice the one before, instead of a string of
// its own. The arena is never rewound — a strings.Builder never rewrites
// a byte it has written — so an ID stays valid after the input is
// overwritten or another file is parsed, and a parsed hint pins the
// file's IDs, never its lines.
func Parse(r io.Reader) (File, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return File{}, fmt.Errorf("sis: empty hint file")
	}
	header := sc.Text()
	var day int
	if _, err := fmt.Sscanf(header, "qoadvisor-hints v1 day=%d", &day); err != nil {
		return File{}, fmt.Errorf("sis: bad header %q", header)
	}
	f := File{Day: day}
	var ids strarena.Arena
	ids.Reset(firstIDBlock)
	line := 1
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if n := bytes.Count(text, comma) + 1; n != 4 {
			return File{}, fmt.Errorf("sis: line %d: want 4 fields, got %d", line, n)
		}
		hashField, text, _ := bytes.Cut(text, comma)
		id, text, _ := bytes.Cut(text, comma)
		flipField, dayField, _ := bytes.Cut(text, comma)
		// The conversions below do not outlive their call (strconv and
		// rules.ParseFlip copy what an error quotes), so none allocates
		// for a field of ordinary length.
		hash, err := strconv.ParseUint(string(hashField), 16, 64)
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: bad template hash: %v", line, err)
		}
		flip, err := rules.ParseFlip(string(flipField))
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: %v", line, err)
		}
		hintDay, err := strconv.Atoi(string(dayField))
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: bad day: %v", line, err)
		}
		f.Hints = append(f.Hints, Hint{
			TemplateHash: hash,
			TemplateID:   ids.String(id),
			Flip:         flip,
			Day:          hintDay,
		})
	}
	return f, sc.Err()
}

var comma = []byte{','}

// firstIDBlock is the size of a hint file's first block of template IDs:
// a day's few dozen hints fit in it.
const firstIDBlock = 1 << 10

// Validate checks a file's internal consistency: rule IDs in range, no
// duplicate templates, no hints flipping required rules.
func Validate(f File, cat *rules.Catalog) error {
	seen := make(map[uint64]bool, len(f.Hints))
	for i, h := range f.Hints {
		if h.Flip.RuleID < 0 || h.Flip.RuleID >= rules.NumRules {
			return fmt.Errorf("sis: hint %d: rule id %d out of range", i, h.Flip.RuleID)
		}
		if seen[h.TemplateHash] {
			return fmt.Errorf("sis: hint %d: duplicate template %016x", i, h.TemplateHash)
		}
		seen[h.TemplateHash] = true
		if cat != nil && cat.Rule(h.Flip.RuleID).Category == rules.Required {
			return fmt.Errorf("sis: hint %d: cannot flip required rule R%03d", i, h.Flip.RuleID)
		}
	}
	return nil
}

// Store is the versioned hint store. Uploading a file installs a new
// version; lookups serve the latest version. The zero value is unusable;
// use NewStore.
type Store struct {
	cat      *rules.Catalog
	versions []File
	current  map[uint64]Hint
}

// NewStore creates an empty store validating against the given catalog.
func NewStore(cat *rules.Catalog) *Store {
	if cat == nil {
		cat = rules.NewCatalog()
	}
	return &Store{cat: cat, current: make(map[uint64]Hint)}
}

// Upload validates and installs a hint file as the newest version. The
// new version wholly replaces the hint set, mirroring the daily pipeline
// output.
func (s *Store) Upload(f File) error {
	if err := Validate(f, s.cat); err != nil {
		return err
	}
	s.versions = append(s.versions, f)
	s.current = make(map[uint64]Hint, len(f.Hints))
	for _, h := range f.Hints {
		s.current[h.TemplateHash] = h
	}
	return nil
}

// Version returns the number of installed versions.
func (s *Store) Version() int { return len(s.versions) }

// Lookup returns the hint for a job template, if any.
func (s *Store) Lookup(templateHash uint64) (Hint, bool) {
	h, ok := s.current[templateHash]
	return h, ok
}

// Size returns the number of active hints.
func (s *Store) Size() int { return len(s.current) }

// ConfigFor returns the rule configuration the optimizer should use for
// a job template: the default config amended by the template's hint.
// This is the compile-time integration point ("every time a job matching
// one of the template identifiers is found, the provided rule hint is
// used at compile time to steer the query optimizer").
func (s *Store) ConfigFor(templateHash uint64, def rules.Config) rules.Config {
	if h, ok := s.current[templateHash]; ok {
		return def.WithFlip(h.Flip)
	}
	return def
}

// History returns the installed versions (shared slice; do not modify).
func (s *Store) History() []File { return s.versions }
