package dass

import (
	"fmt"
	"path/filepath"

	"dassa/internal/dasf"
	"dassa/internal/pfs"
)

// CreateVCA merges the given time-ordered entries into a virtual
// concatenated array at path, touching only metadata (Table I: 0% extra
// space, low construction overhead). Entries must share channel count and
// dtype. Member names are stored relative to the VCA's directory when
// possible, so the dataset directory stays relocatable.
func CreateVCA(path string, entries []Entry) (pfs.Trace, error) {
	var tr pfs.Trace
	tr.Processes = 1
	if err := validateContiguous(entries); err != nil {
		return tr, err
	}
	dir := filepath.Dir(path)
	members := make([]dasf.Member, len(entries))
	for i, e := range entries {
		name := e.Path
		if rel, err := filepath.Rel(dir, e.Path); err == nil {
			name = rel
		}
		members[i] = dasf.Member{
			Name:        name,
			NumChannels: e.Info.NumChannels,
			NumSamples:  e.Info.NumSamples,
			Timestamp:   e.Timestamp,
		}
	}
	global := entries[0].Info.Global.Clone()
	global["MergedFiles"] = dasf.I(int64(len(entries)))
	if err := dasf.WriteVCA(path, global, entries[0].Info.DType, members); err != nil {
		return tr, err
	}
	tr.Writes = 1
	return tr, nil
}

// AppendToVCA extends an existing virtual array with newly recorded files
// ("long-term DAS deployments with continuous recording tend to create
// infinitely many files", §IV-B). Only metadata moves; the appended entries
// must continue the series (same channels/dtype, non-decreasing
// timestamps). It reads and rewrites the whole member table.
func AppendToVCA(vcaPath string, entries []Entry) (pfs.Trace, error) {
	var tr pfs.Trace
	tr.Processes = 1
	if len(entries) == 0 {
		return tr, fmt.Errorf("dass: nothing to append")
	}
	info, st, err := dasf.ReadInfo(vcaPath)
	if err != nil {
		return tr, err
	}
	tr.Opens += st.Opens
	tr.Reads += st.Reads
	tr.BytesRead += st.BytesRead
	if info.Kind != dasf.KindVCA {
		return tr, fmt.Errorf("dass: %s is not a virtual array", vcaPath)
	}
	if err := validateContiguous(entries); err != nil {
		return tr, err
	}
	last := info.Members[len(info.Members)-1]
	if entries[0].Timestamp < last.Timestamp {
		return tr, fmt.Errorf("dass: appended series starts at %d, before the VCA's last member %d",
			entries[0].Timestamp, last.Timestamp)
	}
	if entries[0].Info.NumChannels != info.NumChannels {
		return tr, fmt.Errorf("dass: appended files have %d channels, VCA has %d",
			entries[0].Info.NumChannels, info.NumChannels)
	}
	if entries[0].Info.DType != info.DType {
		return tr, fmt.Errorf("dass: appended files store %v, VCA stores %v",
			entries[0].Info.DType, info.DType)
	}
	dir := filepath.Dir(vcaPath)
	members := append([]dasf.Member(nil), info.Members...)
	// Existing members were resolved to absolute paths by the reader;
	// re-relativize everything for a relocatable file.
	for i := range members {
		if rel, err := filepath.Rel(dir, members[i].Name); err == nil {
			members[i].Name = rel
		}
	}
	for _, e := range entries {
		name := e.Path
		if rel, err := filepath.Rel(dir, e.Path); err == nil {
			name = rel
		}
		members = append(members, dasf.Member{
			Name:        name,
			NumChannels: e.Info.NumChannels,
			NumSamples:  e.Info.NumSamples,
			Timestamp:   e.Timestamp,
		})
	}
	global := info.Global.Clone()
	global["MergedFiles"] = dasf.I(int64(len(members)))
	if err := dasf.WriteVCA(vcaPath, global, info.DType, members); err != nil {
		return tr, err
	}
	tr.Writes = 1
	return tr, nil
}

// CreateRCA merges the entries into one real concatenated data file at
// path: every member is read in full and rewritten (Table I: 100% extra
// space, high construction overhead). Returns the I/O trace so Figure 6
// can report the cost against CreateVCA's.
func CreateRCA(path string, entries []Entry) (pfs.Trace, error) {
	var tr pfs.Trace
	tr.Processes = 1
	if err := validateContiguous(entries); err != nil {
		return tr, err
	}
	nch := entries[0].Info.NumChannels
	total := 0
	for _, e := range entries {
		total += e.Info.NumSamples
	}
	merged := dasf.NewArray2D(nch, total)
	off := 0
	for _, e := range entries {
		r, err := dasf.Open(e.Path)
		if err != nil {
			return tr, err
		}
		a, err := r.ReadAll()
		st := r.Stats()
		r.Close()
		if err != nil {
			return tr, err
		}
		tr.Opens += st.Opens
		tr.Reads += st.Reads
		tr.BytesRead += st.BytesRead
		for c := 0; c < nch; c++ {
			copy(merged.Data[c*total+off:c*total+off+a.Samples], a.Row(c))
		}
		off += a.Samples
	}
	global := entries[0].Info.Global.Clone()
	global["MergedFiles"] = dasf.I(int64(len(entries)))
	if err := dasf.WriteData(path, global, nil, merged, entries[0].Info.DType); err != nil {
		return tr, err
	}
	tr.Writes = int64(nch) // one streamed row group per channel
	tr.BytesWritten = int64(nch) * int64(total) * int64(entries[0].Info.DType.Size())
	return tr, nil
}
