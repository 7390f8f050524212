package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSONL writes one span per line in canonical field order. Spans are
// written in the order given — callers pass Export/Merge output so the
// file is in (StartNs, Region, Seq) order and byte-reproducible for a
// same-seed run.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile is WriteJSONL into a new file at path — what every
// -trace-out flag does.
func WriteFile(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSONL parses a span-per-line trace file, in file order. Blank lines
// are ignored; a malformed line is an error naming its line number.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var spans []Span
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}
