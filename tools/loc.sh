#!/usr/bin/env bash
# The one count of non-test lines.
#
#   tools/loc.sh            the total
#   tools/loc.sh --files    one `lines path` row per counted file, then the total
#
# Counts every `.rs` file under crates/, src/ and examples/ except the
# shims (crates/shims/) and the `tests/` and `benches/` directories, each
# read up to its first line that starts with `#[cfg(test)]` (test modules
# come last; tests/guards.rs holds them there). A file that another
# declares as a test module — `#[cfg(test)]` on the line before
# `mod name;`, as crates/eigtree/src/lib.rs declares differential.rs —
# is test code and is not counted at all. Run it from anywhere; it reads
# the working tree.
set -euo pipefail
cd "$(dirname "$0")/.."

files=false
case "${1:-}" in
"") ;;
--files) files=true ;;
*)
    echo "usage: tools/loc.sh [--files]" >&2
    exit 2
    ;;
esac

mapfile -t sources < <(
    find crates src examples -name '*.rs' \
        -not -path 'crates/shims/*' -not -path '*/tests/*' -not -path '*/benches/*' | sort
)

# The files declared as test modules: `mod name;` under `#[cfg(test)]`
# in `dir/parent.rs` is `dir/name.rs` (or `dir/name/mod.rs`) when the
# parent is a lib.rs, main.rs or mod.rs, and `dir/parent/name.rs` else.
declare -A test_module=()
for file in "${sources[@]}"; do
    while read -r name; do
        dir=$(dirname "$file")
        case "$(basename "$file")" in
        lib.rs | main.rs | mod.rs) base=$dir ;;
        *) base=$dir/$(basename "$file" .rs) ;;
        esac
        test_module[$base/$name.rs]=1
        test_module[$base/$name/mod.rs]=1
    done < <(awk '
        cfg && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
            line = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", line)
            sub(/;.*/, "", line)
            print line
        }
        { cfg = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
    ' "$file")
done

total=0
for file in "${sources[@]}"; do
    [[ -n "${test_module[$file]:-}" ]] && continue
    lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    total=$((total + lines))
    if $files; then
        printf '%7d %s\n' "$lines" "$file"
    fi
done
echo "$total"
