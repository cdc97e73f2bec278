package microarray

import (
	"bufio"
	"io"
	"math"
	"strconv"
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
	c, err := readTable(r, name, "PCL")
	if err != nil {
		return nil, err
	}
	return c.Dataset, nil
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
