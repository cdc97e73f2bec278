package microarray

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The PCL format is the tab-delimited matrix format produced by the
// Stanford Microarray Database and consumed by Cluster 3.0 and Java
// TreeView, the tools the paper extends:
//
//	ID      NAME        GWEIGHT  exp1  exp2 ...
//	EWEIGHT                      1     1    ...        (optional)
//	YAL001C TFC3 tau138 1        0.43  -0.12 ...
//
// Empty cells denote missing values. The NAME column conventionally packs
// the common gene name followed by a free-text annotation.

// ReadPCL parses a PCL stream into a Dataset named name.
func ReadPCL(r io.Reader, name string) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("microarray: reading PCL header: %w", err)
		}
		return nil, fmt.Errorf("microarray: empty PCL input")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) < 3 {
		return nil, fmt.Errorf("microarray: PCL header has %d columns, want >= 3", len(header))
	}
	hasGweight := strings.EqualFold(strings.TrimSpace(header[2]), "GWEIGHT")
	expStart := 2
	if hasGweight {
		expStart = 3
	}
	experiments := make([]string, len(header)-expStart)
	for i, h := range header[expStart:] {
		experiments[i] = strings.TrimSpace(h) // as gene IDs and names are: "exp\r" would not survive WritePCL
	}
	ds := NewDataset(name, experiments)

	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if strings.EqualFold(strings.TrimSpace(fields[0]), "EWEIGHT") {
			for i := 0; i < len(experiments); i++ {
				col := expStart + i
				if col < len(fields) {
					if w, err := strconv.ParseFloat(strings.TrimSpace(fields[col]), 64); err == nil {
						ds.EWeights[i] = w
					}
				}
			}
			continue
		}
		// A row carries every cell the header names, as Cluster 3.0 insists:
		// padding a short one would let a few bytes of input claim a whole
		// dense row (a 1 MB file of 6-byte rows under a wide header, hundreds
		// of GB). Cells beyond the header are ignored.
		if want := expStart + len(experiments); len(fields) < want {
			return nil, fmt.Errorf("microarray: PCL line %d has %d columns, the header has %d",
				lineNo, len(fields), want)
		}
		g := Gene{ID: strings.TrimSpace(fields[0])}
		nameField := strings.TrimSpace(fields[1])
		// Convention: "NAME annotation text ...".
		if sp := strings.IndexByte(nameField, ' '); sp >= 0 {
			g.Name = nameField[:sp]
			g.Annotation = strings.TrimSpace(nameField[sp+1:])
		} else {
			g.Name = nameField
		}
		gw := 1.0
		if hasGweight {
			if w, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64); err == nil {
				gw = w
			}
		}
		values := make([]float64, len(experiments))
		for i := range values {
			col := expStart + i
			cell := strings.TrimSpace(fields[col])
			if cell == "" || strings.EqualFold(cell, "NA") || strings.EqualFold(cell, "NaN") {
				values[i] = Missing
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("microarray: PCL line %d column %d: %w", lineNo, col+1, err)
			}
			values[i] = v
		}
		if err := ds.AddGene(g, values); err != nil {
			return nil, fmt.Errorf("microarray: PCL line %d: %w", lineNo, err)
		}
		ds.GWeights[len(ds.GWeights)-1] = gw
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("microarray: reading PCL: %w", err)
	}
	return ds, nil
}

// WritePCL serializes the dataset in PCL format, including GWEIGHT and
// EWEIGHT fields so a round trip preserves weights.
func WritePCL(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	// Header.
	if _, err := bw.WriteString("ID\tNAME\tGWEIGHT"); err != nil {
		return err
	}
	for _, e := range d.Experiments {
		bw.WriteByte('\t')
		bw.WriteString(e)
	}
	bw.WriteByte('\n')
	// EWEIGHT row.
	bw.WriteString("EWEIGHT\t\t")
	for i := range d.Experiments {
		bw.WriteByte('\t')
		w := 1.0
		if i < len(d.EWeights) {
			w = d.EWeights[i]
		}
		bw.WriteString(formatCell(w))
	}
	bw.WriteByte('\n')
	// Gene rows.
	for gi, g := range d.Genes {
		bw.WriteString(g.ID)
		bw.WriteByte('\t')
		bw.WriteString(g.Name)
		if g.Annotation != "" {
			bw.WriteByte(' ')
			bw.WriteString(g.Annotation)
		}
		bw.WriteByte('\t')
		gw := 1.0
		if gi < len(d.GWeights) {
			gw = d.GWeights[gi]
		}
		bw.WriteString(formatCell(gw))
		for _, v := range d.Data[gi] {
			bw.WriteByte('\t')
			if math.IsNaN(v) {
				// Empty cell is the conventional missing marker.
			} else {
				bw.WriteString(formatCell(v))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// formatCell renders a float the way the Eisen tools do: compact, no
// exponent for typical log-ratio magnitudes.
func formatCell(v float64) string {
	s := strconv.FormatFloat(v, 'g', 6, 64)
	return s
}
