package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseBackends pins the -backends grammar: commas separate shard
// groups, semicolons one group's replicas, whitespace is trimmed, an
// empty group is refused, and a -replicas mismatch names the group.
func TestParseBackends(t *testing.T) {
	for _, tc := range []struct {
		name     string
		flag     string
		replicas int
		want     [][]string
		wantErr  string // substring; "" = no error
	}{
		{name: "one process per shard", flag: "http://a:1,http://b:2",
			want: [][]string{{"http://a:1"}, {"http://b:2"}}},
		{name: "replica groups", flag: "http://a:1;http://a:2,http://b:1;http://b:2", replicas: 2,
			want: [][]string{{"http://a:1", "http://a:2"}, {"http://b:1", "http://b:2"}}},
		{name: "surrounding whitespace", flag: " http://a:1 ; http://a:2 ,\thttp://b:1 ",
			want: [][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}}},
		{name: "empty group", flag: "http://a:1,,http://b:1", wantErr: "empty shard group"},
		{name: "blank replicas only", flag: "http://a:1, ; ", wantErr: "empty shard group"},
		{name: "replicas mismatch", flag: "http://a:1;http://a:2,http://b:1", replicas: 2,
			wantErr: `shard group "http://b:1" lists 1 replicas`},
	} {
		got, err := parseBackends(tc.flag, tc.replicas)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, err %v; want %q", tc.name, got, err, tc.want)
		}
	}
}
