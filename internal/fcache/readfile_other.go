//go:build !linux

package fcache

import "os"

// readFileInto reads the whole file at path; off Linux it simply
// delegates to os.ReadFile and ignores buf.
func readFileInto(path, _ []byte) ([]byte, error) {
	return os.ReadFile(string(path))
}
