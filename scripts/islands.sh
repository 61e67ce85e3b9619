#!/usr/bin/env bash
# Reachability gate: fails when a file under crates/*/src declares pub
# items (column-0 `pub fn|struct|enum|trait|const|type|static`) none of
# which is named, as a whole word, anywhere under crates/*/src,
# benchmark/src or examples outside the file itself, its own crate's
# lib.rs/mod.rs and test code (a file's tail from its first #[cfg(test)]).
# Such a file is an island: nothing that runs reaches it. Connect it to a
# caller or delete it; the allow-list is empty and stays empty.
#
# Item pass: a `pub fn` (any indentation) under crates/*/src whose name
# occurs, as a whole word, in all of the repo's .rs files (crates,
# benchmark/src, examples, tests) no more often than `fn <name>` defines
# it is named only by its definitions: no test, doc or caller names it,
# however many same-named methods there are. Same rule, same empty
# allow-list.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates/*/src benchmark/src examples -name '*.rs')
status=0
for f in $(find crates/*/src -name '*.rs' ! -name lib.rs ! -name mod.rs | sort); do
    names=$(sed -nE 's/^pub (const fn|fn|struct|enum|trait|const|type|static) ([A-Za-z0-9_]+).*/\2/p' "$f" | paste -sd'|' -)
    [[ -z "$names" ]] && continue
    others=$(grep -vxE "$f|${f%%/src/*}/src/(.*/)?(lib|mod)\.rs" <<<"$files")
    awk -v pat="(^|[^A-Za-z0-9_])($names)([^A-Za-z0-9_]|\$)" '
        FNR == 1 { test = 0 }
        /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
        !test && $0 ~ pat { hit = 1; exit }
        END { exit !hit }' $others || { echo "island: $f ($names)"; status=1; }
done

names=$(sed -nE 's/^[ \t]*pub (const )?fn ([A-Za-z0-9_]+).*/\2/p' $(find crates/*/src -name '*.rs') | sort -u)
all=$(cat $(find crates benchmark/src examples tests -name '*.rs'))
lonely=$(awk 'NR == FNR { defs[$2] = $1; next } $1 <= defs[$2] { print $2 }' \
    <(grep -oE '\bfn [A-Za-z0-9_]+' <<<"$all" | cut -c4- | sort | uniq -c) \
    <(grep -owF "$names" <<<"$all" | sort | uniq -c))
for name in $lonely; do
    echo "zero-caller pub fn: $name ($(grep -rlw "fn $name" crates/*/src | paste -sd' ' -))"
    status=1
done
exit $status
