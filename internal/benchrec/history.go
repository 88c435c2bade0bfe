package benchrec

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// History file names start with the run's UTC timestamp in this compact
// layout, so a lexical sort of the directory is a chronological sort of
// the record.
const historyStampLayout = "20060102T150405Z"

// historyFileName derives the append-only store's file name for a report:
// "<timestamp>-<sha12>.json", falling back to "nogit" outside a checkout.
// The timestamp prefix makes lexical directory order chronological.
func historyFileName(r *Report) string {
	sha := r.GitSHA
	if sha == "" {
		sha = "nogit"
	} else if len(sha) > 12 {
		sha = sha[:12]
	}
	return fmt.Sprintf("%s-%s.json", r.Timestamp.UTC().Format(historyStampLayout), sha)
}

// AppendHistory writes the report to dir (created if missing) under its
// historyFileName, suffixing "-1", "-2", … rather than overwriting when
// two runs of the same second and commit collide — the store is
// append-only by construction. It returns the path written.
func AppendHistory(dir string, r *Report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("benchrec: history dir: %w", err)
	}
	base := strings.TrimSuffix(historyFileName(r), ".json")
	path := filepath.Join(dir, base+".json")
	for i := 1; ; i++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		} else if err != nil {
			return "", fmt.Errorf("benchrec: history dir: %w", err)
		}
		path = filepath.Join(dir, fmt.Sprintf("%s-%d.json", base, i))
	}
	if err := r.Save(path); err != nil {
		return "", err
	}
	return path, nil
}

// ListHistory returns the history record paths in dir, oldest first
// (lexical order — chronological by construction of historyFileName).
// Non-JSON files (a README, editor droppings) are ignored.
func ListHistory(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("benchrec: history dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}

// LatestPair returns the two most recent history records in dir — the
// benchdiff baseline (second newest) and candidate (newest) — or an error
// when the store holds fewer than two.
func LatestPair(dir string) (baseline, latest string, err error) {
	paths, err := ListHistory(dir)
	if err != nil {
		return "", "", err
	}
	if len(paths) < 2 {
		return "", "", fmt.Errorf("benchrec: history %s holds %d record(s); need two to diff", dir, len(paths))
	}
	return paths[len(paths)-2], paths[len(paths)-1], nil
}
