# Sanitizer instrumentation.
#
# SMN_SANITIZE enables AddressSanitizer + UndefinedBehaviorSanitizer
# tree-wide (the `asan` preset); SMN_SANITIZE_THREAD enables
# ThreadSanitizer (the `tsan` preset — guards sim::run_units's
# workers). Compile and link flags must
# match across every object, so both apply globally rather than
# per-target. TSan is incompatible with ASan, so the two are mutually
# exclusive.

if(SMN_SANITIZE AND SMN_SANITIZE_THREAD)
  message(FATAL_ERROR "SMN_SANITIZE and SMN_SANITIZE_THREAD are mutually exclusive")
endif()

if(SMN_SANITIZE)
  add_compile_options(-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all)
  add_link_options(-fsanitize=address,undefined)
endif()

if(SMN_SANITIZE_THREAD)
  add_compile_options(-fsanitize=thread -fno-omit-frame-pointer)
  add_link_options(-fsanitize=thread)
endif()
