#!/usr/bin/env bash
# README quickstart smoke: execute the quickstart verbatim.
#
# Extracts every ```sh fenced block from README.md and runs the
# commands exactly as written, so the quickstart cannot drift from the
# binaries: a renamed subcommand, a dropped flag, or a stale crate name
# in the README fails CI here. `cargo test` lines are skipped (the
# tier-1 suite has its own job); everything else runs.
set -euo pipefail
cd "$(dirname "$0")/.."

cleanup() {
    rm -f scenario.json
    rm -rf /tmp/sg-journal-demo
}
trap cleanup EXIT

mapfile -t lines < <(awk '/^```sh$/{f=1;next} /^```$/{f=0} f' README.md)
test "${#lines[@]}" -gt 0 || { echo "no \`\`\`sh blocks found in README.md"; exit 1; }

ran=0
for cmd in "${lines[@]}"; do
    case "$cmd" in
    "" | \#*) continue ;;
    "cargo test"*)
        echo "~ $cmd (skipped: covered by the test job)"
        continue
        ;;
    esac
    echo "+ $cmd"
    eval "timeout 600 $cmd"
    ran=$((ran + 1))
done

# Let the backgrounded daemon (stopped via --shutdown above) exit.
wait

test "$ran" -ge 8 || { echo "README quickstart shrank to $ran commands — update this gate or the README"; exit 1; }
echo "readme smoke ok: $ran quickstart commands ran"
