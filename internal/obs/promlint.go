package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// LintExposition validates a Prometheus text-format stream with a small
// stdlib parser: metric-name syntax, known TYPE declarations, no duplicate
// family declarations or series, every sample attributable to a declared
// family, histogram buckets monotone non-decreasing with the +Inf bucket
// equal to _count. It returns one message per problem (empty means clean).
//
// This is the shared checker behind the golden-format tests and the
// end-to-end exposition tests of the root package and cmd/fedomd.
func LintExposition(r io.Reader) []string {
	var probs []string
	addf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	types := map[string]string{} // family -> counter|gauge|histogram|summary|untyped
	seen := map[string]bool{}    // full series key (name + sorted labels)
	type bucket struct {
		le  float64
		cum int64
	}
	buckets := map[string][]bucket{} // histogram family -> buckets in order
	counts := map[string]int64{}     // histogram family -> _count value
	hasCount := map[string]bool{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseComment(line)
			if !ok {
				continue // free-form comments are legal
			}
			switch kind {
			case "TYPE":
				if !validMetricName(name) {
					addf("line %d: invalid family name %q", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					addf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
				if _, dup := types[name]; dup {
					addf("line %d: duplicate TYPE declaration for %s", lineNo, name)
				}
				types[name] = rest
			case "HELP":
				if !validMetricName(name) {
					addf("line %d: invalid family name %q in HELP", lineNo, name)
				}
			}
			continue
		}

		name, labels, valueStr, ok := parseSample(line)
		if !ok {
			addf("line %d: unparsable sample %q", lineNo, line)
			continue
		}
		if !validMetricName(name) {
			addf("line %d: invalid metric name %q", lineNo, name)
		}
		val, err := parseValue(valueStr)
		if err != nil {
			addf("line %d: bad value %q for %s", lineNo, valueStr, name)
		}

		fam, suffix := familyOf(name, types)
		if fam == "" {
			addf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}

		key := name + "{" + canonLabels(labels) + "}"
		if seen[key] {
			addf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true

		if fam != "" && types[fam] == "histogram" {
			switch suffix {
			case "_bucket":
				le, leOK := labels["le"]
				if !leOK {
					addf("line %d: %s_bucket missing le label", lineNo, fam)
					continue
				}
				bound, err := parseValue(le)
				if err != nil {
					addf("line %d: %s_bucket bad le %q", lineNo, fam, le)
					continue
				}
				buckets[fam] = append(buckets[fam], bucket{le: bound, cum: int64(val)})
			case "_count":
				counts[fam] = int64(val)
				hasCount[fam] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		addf("read: %v", err)
	}

	fams := make([]string, 0, len(buckets))
	for fam := range buckets {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		bs := buckets[fam]
		lastInf := false
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				addf("histogram %s: le bounds not increasing (%g after %g)",
					fam, bs[i].le, bs[i-1].le)
			}
			if bs[i].cum < bs[i-1].cum {
				addf("histogram %s: bucket counts not monotone (%d after %d at le=%g)",
					fam, bs[i].cum, bs[i-1].cum, bs[i].le)
			}
		}
		if len(bs) > 0 {
			last := bs[len(bs)-1]
			lastInf = last.le > 1e308 // +Inf
			if !lastInf {
				addf("histogram %s: missing +Inf bucket", fam)
			} else if hasCount[fam] && last.cum != counts[fam] {
				addf("histogram %s: +Inf bucket %d != _count %d",
					fam, last.cum, counts[fam])
			}
		}
	}
	return probs
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func validMetricName(s string) bool { return metricNameRE.MatchString(s) }

// parseComment splits "# TYPE name kind" / "# HELP name text" lines.
func parseComment(line string) (kind, name, rest string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", false
	}
	if fields[1] != "TYPE" && fields[1] != "HELP" {
		return "", "", "", false
	}
	rest = ""
	if len(fields) > 3 {
		rest = fields[3]
	}
	return fields[1], fields[2], rest, true
}

// parseSample splits a sample line into name, labels, and value text.
// Timestamps (a trailing integer) are accepted and ignored.
func parseSample(line string) (name string, labels map[string]string, value string, ok bool) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", nil, "", false
		}
		var lok bool
		labels, lok = parseLabels(rest[i+1 : j])
		if !lok {
			return "", nil, "", false
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, "", false
		}
		name = fields[0]
		rest = strings.Join(fields[1:], " ")
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, "", false
	}
	return name, labels, fields[0], true
}

// parseLabels parses `k1="v1",k2="v2"` with \" \\ \n escapes.
func parseLabels(s string) (map[string]string, bool) {
	labels := map[string]string{}
	s = strings.TrimSpace(s)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, false
		}
		key := strings.TrimSpace(s[:eq])
		if !validMetricName(key) {
			return nil, false
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, false
		}
		var b strings.Builder
		i := 1
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i >= len(s) {
			return nil, false
		}
		labels[key] = b.String()
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			break
		}
		if s[0] != ',' {
			return nil, false
		}
		s = strings.TrimSpace(s[1:])
	}
	return labels, true
}

func canonLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + strconv.Quote(labels[k])
	}
	return strings.Join(parts, ",")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyOf resolves a sample name to its declared family, honouring the
// histogram/summary component suffixes.
func familyOf(name string, types map[string]string) (fam, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := types[base]; ok && (t == "histogram" || t == "summary") {
				return base, suf
			}
		}
	}
	return "", ""
}
