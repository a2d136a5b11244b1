package sim

import "strconv"

// Name builds a process, signal or resource name from a prefix and
// dot-separated integer parts, byte-identical to
// fmt.Sprintf(prefix+".%d.%d", parts...) for the matching arity.
// Hot launch sites — the per-message MPI helper processes and per-job
// FPGA jobs, created thousands of times per simulated run — build
// a name per operation, which made fmt.Sprintf a measurable slice of
// sweep profiles; this composes the same bytes without the fmt
// machinery.
func Name(prefix string, parts ...int) string {
	var scratch [64]byte // stack room for typical names: string(buf) is the one allocation
	buf := append(scratch[:0], prefix...)
	for _, v := range parts {
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}
