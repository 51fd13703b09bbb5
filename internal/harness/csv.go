package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"rbcast/internal/seqset"
)

// WriteDeliveryCSV emits the per-delivery timeline: one row per
// (host, message) with broadcast time, delivery time, and latency —
// ready for external analysis or plotting. Rows are sorted by sequence
// number then host. Missing deliveries appear with empty delivery and
// latency columns.
func (r *Result) WriteDeliveryCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"seq", "host", "broadcast_us", "delivered_us", "latency_us",
	}); err != nil {
		return err
	}
	total := seqset.Seq(r.TotalMessages())
	for q := seqset.Seq(1); q <= total; q++ {
		sent, haveSent := r.BroadcastAt[q]
		for _, h := range r.HostList { // ascending
			row := []string{
				strconv.FormatUint(uint64(q), 10),
				strconv.Itoa(int(h)),
				"", "", "",
			}
			if haveSent {
				row[2] = strconv.FormatInt(sent.Microseconds(), 10)
			}
			if at, ok := r.Deliveries(h).At(q); ok {
				row[3] = strconv.FormatInt(at.Microseconds(), 10)
				if haveSent {
					row[4] = strconv.FormatInt((at - sent).Microseconds(), 10)
				}
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("harness: writing CSV: %w", err)
	}
	return nil
}
