package frame

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvTimeLayout is the on-disk timestamp format for Time columns.
const csvTimeLayout = time.RFC3339

// WriteCSV writes the frame as CSV with a header row. Time columns are
// RFC 3339; floats use the shortest round-trippable representation.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return fmt.Errorf("frame: write CSV header: %w", err)
	}
	rec := make([]string, len(f.cols))
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.cols {
			switch c.Kind {
			case Float:
				rec[j] = strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
			case Int:
				rec[j] = strconv.FormatInt(c.Ints[i], 10)
			case String:
				rec[j] = c.Strings[i]
			case Time:
				rec[j] = c.Times[i].Format(csvTimeLayout)
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("frame: write CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
