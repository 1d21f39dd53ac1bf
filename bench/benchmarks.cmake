# Benchmark targets, included from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY the bench binaries — the runner
# loop `for b in build/bench/*; do $b; done` must not trip over CMake
# bookkeeping files.

function(revelio_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN} benchmark::benchmark)
  # Recorded in the host block of the bench's JSON output.
  target_compile_definitions(${name} PRIVATE
    REVELIO_BENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    REVELIO_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

revelio_bench(bench_crypto_primitives revelio_crypto)
revelio_bench(bench_dmcrypt_io revelio_storage)
revelio_bench(bench_dmverity_read revelio_storage)
revelio_bench(bench_storage revelio_storage)
revelio_bench(bench_boot_latency revelio_core)
revelio_bench(bench_ssl_cert_ops revelio_core)
revelio_bench(bench_client_attestation revelio_core)
revelio_bench(bench_attack_detection revelio_core)
revelio_bench(bench_gateway revelio_core)
