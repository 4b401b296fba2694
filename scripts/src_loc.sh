#!/usr/bin/env bash
# Net line count of a change to the program sources: lines added, lines
# removed, and net lines in src/ and tools/, working tree against BASE.
#
#   scripts/src_loc.sh [BASE]
#
# BASE is any commit-ish and defaults to the merge-base of HEAD with main
# (on main itself, pass the parent commit). Committed, staged, unstaged, and
# untracked (not ignored) files all count.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
base=${1:-$(git merge-base HEAD main)}
git rev-parse --verify --quiet "$base^{commit}" > /dev/null ||
  { echo "src_loc.sh: unknown BASE '$base'" >&2; exit 2; }

printf '%-8s %8s %8s %8s   (vs %s)\n' path added removed net \
  "$(git rev-parse --short "$base")"
total_added=0
total_removed=0
for path in src tools; do
  read -r added removed < <(git diff --numstat "$base" -- "$path" |
    awk '{ a += $1; r += $2 } END { print a + 0, r + 0 }')
  new=$(git ls-files -z --others --exclude-standard -- "$path" |
    xargs -0 -r cat | wc -l)
  added=$((added + new))
  printf '%-8s %8d %8d %+8d\n' "$path/" "$added" "$removed" \
    "$((added - removed))"
  total_added=$((total_added + added))
  total_removed=$((total_removed + removed))
done
printf '%-8s %8d %8d %+8d\n' total "$total_added" "$total_removed" \
  "$((total_added - total_removed))"
