#!/usr/bin/env bash
# Lists the library functions that no shipped binary reaches.
#
#   scripts/unreached_symbols.sh <scratch-dir>
#
# Builds hlshc_paper, hlshc_serve, the six examples and perfbench into
# <scratch-dir> at -O0 with one section per function and --gc-sections, so
# that every strong function the linker keeps is one some binary can call.
# Then prints each strong (nm `T`) hlshc:: function defined in the src/
# archives that none of those binaries contains, as "<object>  <function>".
# src/sim/batch.cpp is skipped: it always builds at -O3, so its helpers are
# inlined and would show up as false positives.
#
# Every function printed must be deleted or carry a `// kept: <reason>`
# comment at its definition (DESIGN.md, "Unreached code").
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
bins=(hlshc_paper hlshc_serve quickstart jpeg_decode dse_explorer conformance
      export_rtl mixed_flows)

cmake -S "$root" -B "$out/main" "${flags[@]}" >&2
cmake --build "$out/main" --target "${bins[@]}" -j 4 >&2
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >&2
cmake --build "$out/perfbench" --target perfbench -j 4 >&2

# Every symbol the binaries define, demangled.
for b in "${bins[@]}"; do
  find "$out/main" -type f -name "$b" -perm -u+x
done | sort -u > "$out/binaries.txt"
echo "$out/perfbench/perfbench" >> "$out/binaries.txt"
xargs nm -C --defined-only < "$out/binaries.txt" 2>/dev/null \
  | sed -E 's/^[0-9a-f]* *[A-Za-z] //' | sort -u > "$out/reached.txt"

# Strong functions of the src/ archives, minus src/sim/batch.cpp.
find "$out/main/src" -name 'libhlshc_*.a' | sort \
  | xargs nm -A -C --defined-only 2>/dev/null \
  | awk '$2 == "T"' \
  | grep -v '/libhlshc_sim\.a:batch\.cpp\.o:' \
  | sed -E 's|^.*/libhlshc_([^:]*)\.a:([^:]*)\.o:[0-9a-f]* T (.*)$|\1/\2\t\3|' \
  | grep -P '\thlshc::' | sort -u > "$out/defined.txt"

awk -F'\t' 'NR == FNR { reached[$0] = 1; next }
            !($2 in reached) { printf "%-26s  %s\n", $1, $2 }' \
  "$out/reached.txt" "$out/defined.txt"
