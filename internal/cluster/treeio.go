package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// GTR ("gene tree") and ATR ("array tree") are the Eisen-lab dendrogram
// formats paired with CDT files. Each line names an internal node, its two
// children, and the similarity (correlation) at which they merged:
//
//	NODE1X	GENE2X	GENE4X	0.91
//	NODE2X	NODE1X	GENE0X	0.85
//
// Children are either leaves ("GENE%dX" / "ARRY%dX") or earlier nodes
// ("NODE%dX"). Similarity = 1 - merge height, written with every digit it
// has, so a height comes back to within an ulp of 1 or of itself.

// TreeKind selects the leaf naming convention.
type TreeKind int

const (
	// GeneTree uses GENE%dX leaf IDs (GTR files).
	GeneTree TreeKind = iota
	// ArrayTree uses ARRY%dX leaf IDs (ATR files).
	ArrayTree
)

func (k TreeKind) leafPrefix() string {
	if k == ArrayTree {
		return "ARRY"
	}
	return "GENE"
}

// nodeID formats the internal-node identifier for merge i (1-based in the
// file, matching Cluster 3.0 output).
func nodeID(i int) string { return fmt.Sprintf("NODE%dX", i+1) }

// childID formats a Merge child reference as a leaf or node identifier.
func childID(t *Tree, kind TreeKind, c int) string {
	if c < t.NLeaves {
		return fmt.Sprintf("%s%dX", kind.leafPrefix(), c)
	}
	return nodeID(c - t.NLeaves)
}

// WriteTree serializes the dendrogram in GTR/ATR format.
func WriteTree(w io.Writer, t *Tree, kind TreeKind) error {
	bw := bufio.NewWriter(w)
	for i, m := range t.Merges {
		sim := 1 - m.Height
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\t%s\n",
			nodeID(i), childID(t, kind, m.A), childID(t, kind, m.B),
			strconv.FormatFloat(sim, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTree parses a GTR/ATR stream. nLeaves must match the paired CDT's row
// (gene tree) or column (array tree) count — a file is refused at the first
// merge too many for it — and a similarity must be a finite number.
func ReadTree(r io.Reader, kind TreeKind, nLeaves int) (*Tree, error) {
	if nLeaves <= 0 {
		return nil, fmt.Errorf("cluster: a tree over %d leaves", nLeaves)
	}
	t := &Tree{NLeaves: nLeaves}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	nodeIdx := make(map[string]int) // file node name -> tree node index
	lineNo := 0
	prefix := kind.leafPrefix()
	parseChild := func(s string) (int, error) {
		s = strings.TrimSpace(s)
		switch {
		case strings.HasPrefix(s, prefix) && strings.HasSuffix(s, "X"):
			num := s[len(prefix) : len(s)-1]
			i, err := strconv.Atoi(num)
			if err != nil {
				return 0, fmt.Errorf("cluster: bad leaf ID %q", s)
			}
			if i < 0 || i >= nLeaves {
				return 0, fmt.Errorf("cluster: leaf ID %q out of range (%d leaves)", s, nLeaves)
			}
			return i, nil
		case strings.HasPrefix(s, "NODE"):
			i, ok := nodeIdx[s]
			if !ok {
				return 0, fmt.Errorf("cluster: node %q referenced before definition", s)
			}
			return i, nil
		default:
			return 0, fmt.Errorf("cluster: unrecognized child ID %q", s)
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 4 {
			return nil, fmt.Errorf("cluster: tree line %d has %d fields, want 4", lineNo, len(fields))
		}
		if len(t.Merges) == nLeaves-1 {
			return nil, fmt.Errorf("cluster: line %d: more than the %d merges of %d leaves", lineNo, nLeaves-1, nLeaves)
		}
		a, err := parseChild(fields[1])
		if err != nil {
			return nil, fmt.Errorf("cluster: line %d: %w", lineNo, err)
		}
		b, err := parseChild(fields[2])
		if err != nil {
			return nil, fmt.Errorf("cluster: line %d: %w", lineNo, err)
		}
		sim, err := strconv.ParseFloat(strings.TrimSpace(fields[3]), 64)
		if err != nil || math.IsNaN(sim) || math.IsInf(sim, 0) {
			return nil, fmt.Errorf("cluster: line %d: bad similarity %q", lineNo, strings.TrimSpace(fields[3]))
		}
		nodeName := strings.TrimSpace(fields[0])
		nodeIdx[nodeName] = nLeaves + len(t.Merges)
		t.Merges = append(t.Merges, Merge{A: a, B: b, Height: 1 - sim})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading tree: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
