#!/bin/sh
# goloc.sh prints the repository's non-test Go line count at HEAD and,
# given a git revision, the count there and the change from it: the "net
# non-test Go line delta" each change reports.
#
# Usage: sh scripts/goloc.sh [rev]      (or: make loc REV=<rev>)
#
# Counted: every line, blank and comment lines included, of the committed
# *.go files, except *_test.go files, the bench/ module and testdata/
# trees. Only committed content counts, so commit before measuring.
set -eu

count() {
	git grep -c '' "$1" -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/**' ':(exclude)**/testdata/**' |
		awk -F: '{ n += $NF } END { print n + 0 }'
}

head=$(count HEAD)
echo "non-test Go lines at HEAD: $head"
if [ $# -ge 1 ]; then
	base=$(count "$1")
	echo "non-test Go lines at $1: $base"
	echo "delta: $((head - base))"
fi
