# Fails when an ISA-flagged object of bars_backend defines a weak code
# symbol ('W' in nm). Such a symbol (an inline or template function
# compiled under -mavx2 / -mavx512f) may be the copy the linker keeps
# for baseline callers, which then run AVX instructions on a CPU the
# runtime probe rejected. See src/backend/simd_sweep.hpp.
#
#   cmake -DNM=<nm> -DOBJECTS=<obj>|<obj>|... -P check_isa_symbols.cmake
string(REPLACE "|" ";" objects "${OBJECTS}")
set(checked 0)
foreach(obj IN LISTS objects)
  if(NOT obj MATCHES "simd_kernel_avx(2|512)\\.cpp\\.o(bj)?$")
    continue()
  endif()
  execute_process(COMMAND "${NM}" --defined-only "${obj}"
    OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm failed (${rc}) on ${obj}")
  endif()
  string(REGEX MATCHALL "[^\n]* W [^\n]*" weak "${symbols}")
  if(weak)
    string(REPLACE ";" "\n" weak "${weak}")
    message(FATAL_ERROR "${obj} defines weak code symbols:\n${weak}")
  endif()
  message(STATUS "${obj}: no weak code symbols")
  math(EXPR checked "${checked} + 1")
endforeach()
if(NOT checked EQUAL 2)
  message(FATAL_ERROR "expected the 2 ISA objects, found ${checked} in: ${OBJECTS}")
endif()
