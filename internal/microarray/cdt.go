package microarray

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// The CDT ("clustered data table") format is the PCL matrix reordered to
// match a clustering result, with an extra GID column linking each row to a
// leaf of the gene tree (GTR file) and an optional AID row linking each
// column to a leaf of the array tree (ATR file). Java TreeView renders CDT
// + GTR + ATR triples; ForestView loads the same triples, one per pane.

// CDT couples a dataset with the leaf identifiers that tie it to its
// clustering trees.
type CDT struct {
	Dataset *Dataset
	// GIDs[i] is the gene-tree leaf ID of row i, conventionally "GENE3X".
	GIDs []string
	// AIDs[j] is the array-tree leaf ID of column j, conventionally "ARRY1X".
	AIDs []string
}

// GeneLeafID formats the conventional gene leaf identifier for row i.
func GeneLeafID(i int) string { return fmt.Sprintf("GENE%dX", i) }

// ArrayLeafID formats the conventional array leaf identifier for column j.
func ArrayLeafID(j int) string { return fmt.Sprintf("ARRY%dX", j) }

// WriteCDT serializes a clustered data table. GIDs and AIDs may be nil when
// the corresponding tree is absent (then the GID column / AID row are
// omitted, which TreeView also accepts).
func WriteCDT(w io.Writer, c *CDT) error {
	d := c.Dataset
	if c.GIDs != nil && len(c.GIDs) != d.NumGenes() {
		return fmt.Errorf("microarray: %d GIDs vs %d genes", len(c.GIDs), d.NumGenes())
	}
	if c.AIDs != nil && len(c.AIDs) != d.NumExperiments() {
		return fmt.Errorf("microarray: %d AIDs vs %d experiments", len(c.AIDs), d.NumExperiments())
	}
	bw := bufio.NewWriter(w)
	hasGID := c.GIDs != nil
	// Header row.
	if hasGID {
		bw.WriteString("GID\t")
	}
	bw.WriteString("ID\tNAME\tGWEIGHT")
	for _, e := range d.Experiments {
		bw.WriteByte('\t')
		bw.WriteString(e)
	}
	bw.WriteByte('\n')
	// AID row.
	if c.AIDs != nil {
		if hasGID {
			bw.WriteString("AID\t")
		} else {
			bw.WriteString("AID")
		}
		bw.WriteString("\t\t")
		for _, aid := range c.AIDs {
			bw.WriteByte('\t')
			bw.WriteString(aid)
		}
		bw.WriteByte('\n')
	}
	// EWEIGHT row.
	if hasGID {
		bw.WriteString("EWEIGHT\t")
	} else {
		bw.WriteString("EWEIGHT")
	}
	bw.WriteString("\t\t")
	for i := range d.Experiments {
		bw.WriteByte('\t')
		w := 1.0
		if i < len(d.EWeights) {
			w = d.EWeights[i]
		}
		bw.WriteString(formatCell(w))
	}
	bw.WriteByte('\n')
	for gi, g := range d.Genes {
		if hasGID {
			bw.WriteString(c.GIDs[gi])
			bw.WriteByte('\t')
		}
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
			if !math.IsNaN(v) {
				bw.WriteString(formatCell(v))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadCDT parses a CDT stream. Missing GID column / AID row yield nil
// slices in the result. As in ReadPCL a gene row carries every cell the
// header names, and there is one AID row at most: a few bytes of input
// cannot claim a header's width of memory.
func ReadCDT(r io.Reader, name string) (*CDT, error) {
	return readTable(r, name, "CDT")
}
