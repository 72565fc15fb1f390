package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"strconv"
)

// suiteSeeds are the seeds paper_suite runs at. --seed selects one by
// index modulo the table, so every run has a golden; the first is the
// suite's default seed.
var suiteSeeds = []uint64{
	0xd5bcf95, 0x1, 0x2545f491, 0x9e3779b9, 0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19, 0xcbbb9d5d, 0x629a292a, 0x9159015a, 0x152fecd8,
}

// goldens maps scale ("full", "quick") to seed (hex) to the per-experiment
// digests of dxbench's masked text output, in experiments.All() order.
// They are recorded from dxbench itself (record_goldens.sh), so a match
// proves the benchmark drives the same path users run, byte for byte.
type goldens map[string]map[string][]string

//go:embed goldens.json
var goldensJSON []byte

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

func seedKey(seed uint64) string { return "0x" + strconv.FormatUint(seed, 16) }

// maskT3 blanks the last column of T3's data rows: its measured ns/elem
// times the host and is the one cell of the suite that is not
// reproducible. The column is last, so masking it moves no other cell.
func maskT3(text []byte) []byte {
	lines := bytes.SplitAfter(text, []byte("\n"))
	in, row := false, 0
	for i, l := range lines {
		switch {
		case bytes.HasPrefix(l, []byte("== T3:")):
			in, row = true, 0
		case in && len(bytes.TrimSpace(l)) == 0:
			in = false
		case in:
			row++
			if row > 2 { // past the header and separator lines
				cut := bytes.LastIndexByte(bytes.TrimRight(l, "\n"), ' ') + 1
				lines[i] = append(append([]byte(nil), l[:cut]...), "*\n"...)
			}
		}
	}
	return bytes.Join(lines, nil)
}

// blockDigests splits rendered suite text into per-experiment blocks (each
// starts with a "== " title line) and returns the SHA-256 of each, after
// masking T3.
func blockDigests(text []byte) []string {
	text = maskT3(text)
	var out []string
	start := 0
	for i := 0; i <= len(text); i++ {
		if i == len(text) || (i > start && text[i-1] == '\n' && bytes.HasPrefix(text[i:], []byte("== "))) {
			sum := sha256.Sum256(text[start:i])
			out = append(out, hex.EncodeToString(sum[:]))
			start = i
		}
	}
	return out
}

// recordGoldens runs dxbench at every suite seed, full and quick, and
// writes the golden digests as JSON.
func recordGoldens(dxbench string, w io.Writer) error {
	g := goldens{"full": {}, "quick": {}}
	for scale, m := range g {
		for _, seed := range suiteSeeds {
			args := []string{"-seed", strconv.FormatUint(seed, 10), "-parallel", strconv.Itoa(workers)}
			if scale == "quick" {
				args = append(args, "-quick")
			}
			var out bytes.Buffer
			cmd := exec.Command(dxbench, args...)
			cmd.Stdout = &out
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("dxbench %v: %w", args, err)
			}
			m[seedKey(seed)] = blockDigests(out.Bytes())
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(g)
}
