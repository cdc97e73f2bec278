package microarray

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("microarray: reading CDT header: %w", err)
		}
		return nil, fmt.Errorf("microarray: empty CDT input")
	}
	header := strings.Split(sc.Text(), "\t")
	hasGID := len(header) > 0 && strings.EqualFold(strings.TrimSpace(header[0]), "GID")
	idCol := 0
	if hasGID {
		idCol = 1
	}
	nameCol := idCol + 1
	gwCol := idCol + 2
	expStart := idCol + 3
	if len(header) < expStart {
		return nil, fmt.Errorf("microarray: CDT header has %d columns, want >= %d", len(header), expStart)
	}
	if !strings.EqualFold(strings.TrimSpace(header[gwCol]), "GWEIGHT") {
		// Tolerate a missing GWEIGHT column the way TreeView does.
		expStart = gwCol
		gwCol = -1
	}
	experiments := make([]string, len(header)-expStart)
	for i, h := range header[expStart:] {
		experiments[i] = strings.TrimSpace(h) // as in ReadPCL
	}
	ds := NewDataset(name, experiments)
	c := &CDT{Dataset: ds}
	if hasGID {
		c.GIDs = []string{}
	}

	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		first := strings.TrimSpace(fields[0])
		switch {
		case strings.EqualFold(first, "AID"):
			if c.AIDs != nil {
				return nil, fmt.Errorf("microarray: CDT line %d: a second AID row", lineNo)
			}
			c.AIDs = make([]string, len(experiments))
			for i := range experiments {
				col := expStart + i
				if col < len(fields) {
					c.AIDs[i] = strings.TrimSpace(fields[col])
				}
			}
			continue
		case strings.EqualFold(first, "EWEIGHT"):
			for i := range experiments {
				col := expStart + i
				if col < len(fields) {
					if w, err := strconv.ParseFloat(strings.TrimSpace(fields[col]), 64); err == nil {
						ds.EWeights[i] = w
					}
				}
			}
			continue
		}
		if want := expStart + len(experiments); len(fields) < want {
			return nil, fmt.Errorf("microarray: CDT line %d has %d columns, the header has %d",
				lineNo, len(fields), want)
		}
		g := Gene{ID: strings.TrimSpace(fields[idCol])}
		nameField := strings.TrimSpace(fields[nameCol])
		if sp := strings.IndexByte(nameField, ' '); sp >= 0 {
			g.Name = nameField[:sp]
			g.Annotation = strings.TrimSpace(nameField[sp+1:])
		} else {
			g.Name = nameField
		}
		gw := 1.0
		if gwCol >= 0 {
			if w, err := strconv.ParseFloat(strings.TrimSpace(fields[gwCol]), 64); err == nil {
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
				return nil, fmt.Errorf("microarray: CDT line %d column %d: %w", lineNo, col+1, err)
			}
			values[i] = v
		}
		if err := ds.AddGene(g, values); err != nil {
			return nil, fmt.Errorf("microarray: CDT line %d: %w", lineNo, err)
		}
		ds.GWeights[len(ds.GWeights)-1] = gw
		if hasGID {
			c.GIDs = append(c.GIDs, strings.TrimSpace(fields[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("microarray: reading CDT: %w", err)
	}
	return c, nil
}
