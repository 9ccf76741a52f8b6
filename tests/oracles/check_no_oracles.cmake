# Fails if libarchgym defines a symbol of the test-only oracles, or
# lacks paretoFrontNaive (not an oracle: paretoFront routes NaN and
# >= 4-D inputs to it). The per-step-rebuild cost models are matched by
# their raw-workload parameter types, so the view overloads pass.
#
#   cmake -DNM=<nm> -DLIB=<libarchgym.a> -P check_no_oracles.cmake

if(NOT NM)
  find_program(NM nm REQUIRED)
endif()
execute_process(COMMAND ${NM} -C --defined-only ${LIB}
                OUTPUT_VARIABLE symbols RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT symbols)
  message(FATAL_ERROR "'${NM} -C --defined-only ${LIB}' failed (${rc})")
endif()

set(failed FALSE)
foreach(pattern
        "archgym::oracle::" "ReferenceDramController::"
        "ReferenceStackProfiler::" "crossSquaredDistancesNaive\\("
        "evaluate[A-Za-z]*\\([^)\n]*(ConvLayer|::Network|TaskGraph) const&")
  string(REGEX MATCHALL "[^\n]*${pattern}[^\n]*" hits "${symbols}")
  if(hits)
    string(REPLACE ";" "\n" hits "${hits}")
    message("oracle symbol defined in ${LIB}:\n${hits}")
    set(failed TRUE)
  endif()
endforeach()
if(NOT symbols MATCHES "archgym::paretoFrontNaive\\(")
  message("archgym::paretoFrontNaive is missing from ${LIB}")
  set(failed TRUE)
endif()
if(failed)
  message(FATAL_ERROR "libarchgym must define no oracles")
endif()
