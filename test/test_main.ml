let () =
  Alcotest.run "acrobat"
    [
      "tensor", T_tensor.suite;
      "device", T_device.suite;
      "frontend", T_frontend.suite;
      "compiler", T_compiler.suite;
      "runtime", T_runtime.suite;
      "engines", T_engines.suite;
      "serve", T_serve.suite;
      "models", T_models.suite;
      "failures", T_failures.suite;
      "chaos", T_chaos.suite;
      "tenancy", T_tenancy.suite;
      "stats", T_stats.suite;
      "recovery", T_recovery.suite;
      "vclock", T_accounting.suite;
    ]
