package sis

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"qoadvisor/internal/rules"
)

// parseRef is Parse as it was before it read fields out of the scanner's
// buffer: a string per line, strings.Split, every TemplateID a substring
// of its line. FuzzParse and TestParseMatchesReference hold Parse to it,
// File and error text alike.
func parseRef(r io.Reader) (File, error) {
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
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 4 {
			return File{}, fmt.Errorf("sis: line %d: want 4 fields, got %d", line, len(parts))
		}
		hash, err := strconv.ParseUint(parts[0], 16, 64)
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: bad template hash: %v", line, err)
		}
		flip, err := rules.ParseFlip(parts[2])
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: %v", line, err)
		}
		hintDay, err := strconv.Atoi(parts[3])
		if err != nil {
			return File{}, fmt.Errorf("sis: line %d: bad day: %v", line, err)
		}
		f.Hints = append(f.Hints, Hint{
			TemplateHash: hash,
			TemplateID:   parts[1],
			Flip:         flip,
			Day:          hintDay,
		})
	}
	return f, sc.Err()
}
