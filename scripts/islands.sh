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
# occurs, as a whole word outside `//` comment lines, only in the repo's
# .rs files (crates, benchmark/src, examples, tests) that define a `fn` of
# that name has no caller outside its own file: only its definitions, its
# file's own code and tests, or a same-named method's file name it. Drop
# its `pub`, or delete it if then nothing calls it. Same empty allow-list.
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

lonely=$(awk '
    /^[ \t]*\/\// { next }
    FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^[ \t]*pub (const )?fn [A-Za-z0-9_]+/) {
        n = split(substr($0, RSTART, RLENGTH), w, " "); pub[w[n]] = 1
    }
    {
        line = $0
        while (match(line, /(^|[^A-Za-z0-9_])fn [A-Za-z0-9_]+/)) {
            n = split(substr(line, RSTART, RLENGTH), w, " "); def[w[n], FILENAME] = 1
            line = substr(line, RSTART + RLENGTH)
        }
        n = split($0, w, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) if (w[i] != "") seen[w[i], FILENAME] = 1
    }
    END {
        for (k in seen) { split(k, p, SUBSEP); if (!(k in def)) called[p[1]] = 1 }
        for (name in pub) if (!(name in called)) print name
    }' $(find crates benchmark/src examples tests -name '*.rs' | sort) | sort)
for name in $lonely; do
    echo "pub fn with no caller outside its file: $name ($(grep -rlw "fn $name" crates/*/src | paste -sd' ' -))"
    status=1
done
exit $status
