(** Virtual-clock golden pins.

    Every catalog model at tiny size, batch 4, under each framework preset
    (ACROBAT AOT and VM, ACROBAT under [Config.baseline] and under the
    agenda scheduler in AOT and VM, DyNet, DN++, PyTorch), in
    accounting-only and
    in value mode. A pin holds the exact bits of every
    {!Profiler.times_us} entry, every {!Profiler.counters} value, the
    flush count and a digest of the PGO profile's bits. ACROBAT presets
    are tuned first, so the profile's float sums feed the kernel qualities
    the timed run charges.

    Host-side speed work must leave every pin unchanged: a mismatch means
    simulated time (or the DFG it is charged for) moved. *)

open Acrobat

(* ACROBAT scheduled by DyNet's agenda: the agenda and runtime-depth
   schedulers walk node arguments, so these presets (and
   [Config.baseline], which schedules by runtime depth) pin what those
   walks charge with shared arguments present. *)
let agenda = { Config.acrobat with scheduler = Config.Agenda }

let presets =
  [
    "acrobat-aot", Frameworks.Acrobat Config.acrobat, Driver.Aot_mode;
    "acrobat-vm", Frameworks.Acrobat Config.acrobat, Driver.Vm_mode;
    "dynet", Frameworks.Dynet { improved = false; scheduler = Config.Agenda }, Driver.Aot_mode;
    "dynet++", Frameworks.Dynet { improved = true; scheduler = Config.Agenda }, Driver.Aot_mode;
    "pytorch", Frameworks.Pytorch, Driver.Vm_mode;
    "acrobat-baseline-aot", Frameworks.Acrobat Config.baseline, Driver.Aot_mode;
    "acrobat-baseline-vm", Frameworks.Acrobat Config.baseline, Driver.Vm_mode;
    "acrobat-agenda-aot", Frameworks.Acrobat agenda, Driver.Aot_mode;
    "acrobat-agenda-vm", Frameworks.Acrobat agenda, Driver.Vm_mode;
  ]

let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* One line per run: times, counters, flushes, profile digest. *)
let fingerprint (r : Driver.result) =
  let prof = r.Driver.stats.Driver.profiler in
  let profile =
    List.map
      (fun (id, count, mean, se) -> Printf.sprintf "%d:%s:%s:%d" id (bits count) (bits mean) se)
      r.Driver.profile
    |> String.concat ";" |> Digest.string |> Digest.to_hex
  in
  Printf.sprintf "t=%s c=%s f=%d p=%s"
    (String.concat "," (Array.to_list (Array.map bits prof.Profiler.times_us)))
    (String.concat "," (List.map (fun (_, n) -> string_of_int n) (Profiler.counters prof)))
    r.Driver.stats.Driver.flushes (String.sub profile 0 12)

let run_case id (framework, mode) ~compute_values =
  let model = Models.tiny id in
  let compiled, weights = compile_model ~framework model ~batch:4 ~seed:1 in
  Driver.run_batch ~compute_values ~mode ~policy:(Frameworks.policy framework)
    ~quality:compiled.quality ~lprog:compiled.lprog ~weights
    ~instances:(gen_batch model ~batch:4 ~seed:3) ()
  |> fingerprint

(* Captured on the list-based executor and list-based AOT calls that
   DESIGN.md §19 replaced; the baseline and agenda pins on the
   full-argument DFG nodes that DESIGN.md §21 replaced. A pin moves only
   with a change that means to change simulated time, and says so: the
   TreeLSTM ACROBAT rows (AOT, VM, agenda) moved when a block that runs
   once per run stopped building a node per evaluation (DESIGN.md §35;
   224 -> 153 nodes, one more width-1 batch), and again when its outputs
   became shared arguments of their consumer (DESIGN.md §36: the five
   outputs' bytes are read once per batch, so kernel time falls, and the
   once node no longer counts as an unbatched op). *)
let pins : ((string * string * string) * string) list =
  [
    ("rnn", "acrobat-aot", "acct"),
    "t=4049bd70a3d70a27,4027666666666678,400e3d70a3d70a3e,4052b920c370f5e4,404d000000000000,0,0 c=27,0,0,2,234,27,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-aot", "values"),
    "t=4049bd70a3d70a27,4027666666666678,400e3d70a3d70a3e,4052b920c370f5e4,404d000000000000,0,0 c=27,0,0,2,234,27,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-vm", "acct"),
    "t=4049bd70a3d70a27,4027666666666678,400e3d70a3d70a3e,4052b920c370f5e4,404d000000000000,4085219999999a70,0 c=27,0,0,2,234,27,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-vm", "values"),
    "t=4049bd70a3d70a27,4027666666666678,400e3d70a3d70a3e,4052b920c370f5e4,404d000000000000,4085219999999a70,0 c=27,0,0,2,234,27,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "dynet", "acct"),
    "t=4049bd70a3d70a27,40610851eb851eec,405dd1eb851eb84a,4061e2186584b4dc,4072400000000000,0,0 c=67,28,8960,79,234,39,6,0 f=1 p=b1f91611acfa";
    ("rnn", "dynet", "values"),
    "t=4049bd70a3d70a27,40610851eb851eec,405dd1eb851eb84a,4061e2186584b4dc,4072400000000000,0,0 c=67,28,8960,79,234,39,6,0 f=1 p=b1f91611acfa";
    ("rnn", "dynet++", "acct"),
    "t=4049bd70a3d70a27,40610851eb851eec,405dd1eb851eb84a,4061e2186584b4dc,4072400000000000,0,0 c=67,28,8960,79,234,39,6,0 f=1 p=b1f91611acfa";
    ("rnn", "dynet++", "values"),
    "t=4049bd70a3d70a27,40610851eb851eec,405dd1eb851eb84a,4061e2186584b4dc,4072400000000000,0,0 c=67,28,8960,79,234,39,6,0 f=1 p=b1f91611acfa";
    ("rnn", "pytorch", "acct"),
    "t=406128f5c28f5c14,407927ae147ae179,405dd1eb851eb84a,4095aeab0e87f2bd,4095f80000000000,408d9e66666667d8,0 c=624,0,0,79,624,624,624,0 f=624 p=b12f2b373ee8";
    ("rnn", "pytorch", "values"),
    "t=406128f5c28f5c14,407927ae147ae179,405dd1eb851eb84a,4095aeab0e87f2bd,4095f80000000000,408d9e66666667d8,0 c=624,0,0,79,624,624,624,0 f=624 p=b12f2b373ee8";
    ("treelstm", "acrobat-aot", "acct"),
    "t=4040d47ae147ae0b,401e999999999984,400a7ae147ae147b,4070500b92e7801e,406a000000000000,0,0 c=102,0,0,2,153,13,3,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-aot", "values"),
    "t=4040d47ae147ae0b,401e999999999984,400a7ae147ae147b,4070500b92e7801e,406a000000000000,0,0 c=102,0,0,2,153,13,3,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-vm", "acct"),
    "t=4040d47ae147ae0b,401e999999999984,400a7ae147ae147b,4070500b92e7801e,406a000000000000,40b29acccccccc8d,0 c=102,0,0,2,153,13,3,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-vm", "values"),
    "t=4040d47ae147ae0b,401e999999999984,400a7ae147ae147b,4070500b92e7801e,406a000000000000,40b29acccccccc8d,0 c=102,0,0,2,153,13,3,0 f=1 p=5f098e4e55e5";
    ("treelstm", "dynet", "acct"),
    "t=408055c28f5c2a0e,40a71f851eb84626,405cf3d70a3d70ad,408cb13c81c3afbf,408fb00000000000,0,0 c=430,177,91648,77,2376,253,157,0 f=1 p=a39ba12c1676";
    ("treelstm", "dynet", "values"),
    "t=408055c28f5c2a0e,40a71f851eb84626,405cf3d70a3d70ad,408cb13c81c3afbf,408fb00000000000,0,0 c=430,177,91648,77,2376,253,157,0 f=1 p=a39ba12c1676";
    ("treelstm", "dynet++", "acct"),
    "t=407ea28f5c28f7ac,409390f5c28f5a60,405cf3d70a3d70ad,407a5e51389022ab,4081800000000000,0,0 c=203,159,666624,77,2228,44,5,0 f=1 p=c105b279f352";
    ("treelstm", "dynet++", "values"),
    "t=407ea28f5c28f7ac,409390f5c28f5a60,405cf3d70a3d70ad,407a5e51389022ab,4081800000000000,0,0 c=203,159,666624,77,2228,44,5,0 f=1 p=c105b279f352";
    ("treelstm", "pytorch", "acct"),
    "t=4095eae147ae16e7,40b018a3d70a3617,405cf3d70a3d70ad,40cbae91d8cba265,40c9350000000000,40c26d4cccccd71a,0 c=6376,0,0,77,6376,6376,6376,0 f=6376 p=8fa6038041de";
    ("treelstm", "pytorch", "values"),
    "t=4095eae147ae16e7,40b018a3d70a3617,405cf3d70a3d70ad,40cbae91d8cba265,40c9350000000000,40c26d4cccccd71a,0 c=6376,0,0,77,6376,6376,6376,0 f=6376 p=8fa6038041de";
    ("mvrnn", "acrobat-aot", "acct"),
    "t=4030b851eb851ebd,400e66666666665a,4016f7ced916872c,406104914eba6c2b,405c000000000000,0,0 c=54,0,0,2,76,11,3,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-aot", "values"),
    "t=4030b851eb851ebd,400e66666666665a,4016f7ced916872c,406104914eba6c2b,405c000000000000,0,0 c=54,0,0,2,76,11,3,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-vm", "acct"),
    "t=4030b851eb851ebd,400e66666666665a,4016f7ced916872c,406104914eba6c2b,405c000000000000,4091accccccccd21,0 c=54,0,0,2,76,11,3,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-vm", "values"),
    "t=4030b851eb851ebd,400e66666666665a,4016f7ced916872c,406104914eba6c2b,405c000000000000,4091accccccccd21,0 c=54,0,0,2,76,11,3,0 f=1 p=811a37ef954f";
    ("mvrnn", "dynet", "acct"),
    "t=4058333333333318,408287ae147ae1d5,406d07be76c8b43d,407cf994a0a97a7b,4086c00000000000,0,0 c=211,29,40960,153,440,182,152,0 f=1 p=a9b8ff09a130";
    ("mvrnn", "dynet", "values"),
    "t=4058333333333318,408287ae147ae1d5,406d07be76c8b43d,407cf994a0a97a7b,4086c00000000000,0,0 c=211,29,40960,153,440,182,152,0 f=1 p=a9b8ff09a130";
    ("mvrnn", "dynet++", "acct"),
    "t=4058333333333318,406ec51eb851ebed,406d07be76c8b43d,4068ff88123a324e,407ee00000000000,0,0 c=94,46,82048,153,440,48,9,0 f=1 p=a9b8ff09a130";
    ("mvrnn", "dynet++", "values"),
    "t=4058333333333318,406ec51eb851ebed,406d07be76c8b43d,4068ff88123a324e,407ee00000000000,0,0 c=94,46,82048,153,440,48,9,0 f=1 p=a9b8ff09a130";
    ("mvrnn", "pytorch", "acct"),
    "t=40602b851eb851d8,4077cae147ae14b2,406d07be76c8b43d,40946f3e54a9e64f,4097280000000000,4096e19999999871,0 c=588,0,0,153,588,588,588,0 f=588 p=cd9ba79ba833";
    ("mvrnn", "pytorch", "values"),
    "t=40602b851eb851d8,4077cae147ae14b2,406d07be76c8b43d,40946f3e54a9e64f,4097280000000000,4096e19999999871,0 c=588,0,0,153,588,588,588,0 f=588 p=cd9ba79ba833";
    ("birnn", "acrobat-aot", "acct"),
    "t=405573333333331c,4033800000000028,400bbe76c8b43958,4062398c292bd58e,405c000000000000,0,0 c=54,0,0,2,390,53,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-aot", "values"),
    "t=405573333333331c,4033800000000028,400bbe76c8b43958,4062398c292bd58e,405c000000000000,0,0 c=54,0,0,2,390,53,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-vm", "acct"),
    "t=405573333333331c,4033800000000028,400bbe76c8b43958,4062398c292bd58e,405c000000000000,40a05f999999979d,0 c=54,0,0,2,390,53,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-vm", "values"),
    "t=405573333333331c,4033800000000028,400bbe76c8b43958,4062398c292bd58e,405c000000000000,40a05f999999979d,0 c=54,0,0,2,390,53,12,0 f=1 p=c38c551db9c2";
    ("birnn", "dynet", "acct"),
    "t=4059bd70a3d70a20,4071c666666666a4,405dbdf3b645a1d5,40747788ec98f205,407d400000000000,0,0 c=155,78,16256,79,468,77,12,0 f=1 p=81b0dbee8db0";
    ("birnn", "dynet", "values"),
    "t=4059bd70a3d70a20,4071c666666666a4,405dbdf3b645a1d5,40747788ec98f205,407d400000000000,0,0 c=155,78,16256,79,468,77,12,0 f=1 p=81b0dbee8db0";
    ("birnn", "dynet++", "acct"),
    "t=4059bd70a3d70a20,4070a0a3d70a3da1,405dbdf3b645a1d5,406e182cf30a2c21,4078400000000000,0,0 c=115,71,99840,79,468,44,0,0 f=1 p=81b0dbee8db0";
    ("birnn", "dynet++", "values"),
    "t=4059bd70a3d70a20,4070a0a3d70a3da1,405dbdf3b645a1d5,406e182cf30a2c21,4078400000000000,0,0 c=115,71,99840,79,468,44,0,0 f=1 p=81b0dbee8db0";
    ("birnn", "pytorch", "acct"),
    "t=406e07ae147ae120,408608f5c28f5bf3,405dbdf3b645a1d5,40a2f6c788a17fde,40a24c0000000000,40a4286666666355,0 c=1092,0,0,79,1092,1092,1092,0 f=1092 p=591b6a1f090d";
    ("birnn", "pytorch", "values"),
    "t=406e07ae147ae120,408608f5c28f5bf3,405dbdf3b645a1d5,40a2f6c788a17fde,40a24c0000000000,40a4286666666355,0 c=1092,0,0,79,1092,1092,1092,0 f=1092 p=591b6a1f090d";
    ("nestedrnn", "acrobat-aot", "acct"),
    "t=4087fe666666688a,4065d000000000bf,40084189374bc6a8,40b2c114c962da36,40abf00000000000,0,405119999999999e c=1786,0,0,2,3490,1281,312,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-aot", "values"),
    "t=4087fe666666688a,4065d000000000bf,40084189374bc6a8,40b2c114c962da36,40abf00000000000,0,405119999999999e c=1786,0,0,2,3490,1281,312,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-vm", "acct"),
    "t=4087fe666666688a,4065d000000000bf,40084189374bc6a8,40b2c114c962da36,40abf00000000000,40d48959999991c5,405119999999999e c=1786,0,0,2,3490,1281,312,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-vm", "values"),
    "t=4087fe666666688a,4065d000000000bf,40084189374bc6a8,40b2c114c962da36,40abf00000000000,40d48959999991c5,405119999999999e c=1786,0,0,2,3490,1281,312,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "dynet", "acct"),
    "t=408c9d1eb851ee4a,40a52fe147ae0c07,401e20c49ba5e354,40b0c49db35fd6c8,40ae640000000000,0,405119999999999e c=1940,102,8576,5,4162,1838,772,114 f=34 p=7beabea20151";
    ("nestedrnn", "dynet", "values"),
    "t=408c9d1eb851ee4a,40a52fe147ae0c07,401e20c49ba5e354,40b0c49db35fd6c8,40ae640000000000,0,405119999999999e c=1940,102,8576,5,4162,1838,772,114 f=34 p=7beabea20151";
    ("nestedrnn", "dynet++", "acct"),
    "t=408bd800000002aa,40a37b8f5c28eea1,401e20c49ba5e354,40aed66943cdd395,40ac340000000000,0,405119999999999e c=1800,258,100256,5,4050,1542,423,114 f=34 p=23b4b5fed9e8";
    ("nestedrnn", "dynet++", "values"),
    "t=408bd800000002aa,40a37b8f5c28eea1,401e20c49ba5e354,40aed66943cdd395,40ac340000000000,0,405119999999999e c=1800,258,100256,5,4050,1542,423,114 f=34 p=23b4b5fed9e8";
    ("nestedrnn", "pytorch", "acct"),
    "t=40a575d70a3d6d14,40bf6523d70a40c5,401e20c49ba5e354,40db1aa17bb153db,40d8658000000000,40dacd0ccccca855,0 c=12486,0,0,5,12486,12486,12486,0 f=12486 p=6fc556b00a5d";
    ("nestedrnn", "pytorch", "values"),
    "t=40a575d70a3d6d14,40bf6523d70a40c5,401e20c49ba5e354,40db1aa17bb153db,40d8658000000000,40dacd0ccccca855,0 c=12486,0,0,5,12486,12486,12486,0 f=12486 p=6fc556b00a5d";
    ("drnn", "acrobat-aot", "acct"),
    "t=401deb851eb851e9,3ffb333333333337,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,0,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-aot", "values"),
    "t=401deb851eb851e9,3ffb333333333337,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,0,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-vm", "acct"),
    "t=401deb851eb851e9,3ffb333333333337,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,407faccccccccdb8,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-vm", "values"),
    "t=401deb851eb851e9,3ffb333333333337,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,407faccccccccdb8,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "dynet", "acct"),
    "t=403db33333333325,4057847ae147ae1e,401eac083126e979,406d7bfa182fb994,406c400000000000,0,4036ccccccccccd0 c=108,19,1792,5,135,89,67,38 f=15 p=7eab7a93e557";
    ("drnn", "dynet", "values"),
    "t=403db33333333325,4057847ae147ae1e,401eac083126e979,406d7bfa182fb994,406c400000000000,0,4036ccccccccccd0 c=108,19,1792,5,135,89,67,38 f=15 p=7eab7a93e557";
    ("drnn", "dynet++", "acct"),
    "t=403670a3d70a3d6d,4052533333333343,401e9ba5e353f7cf,405c760b560f14bb,405c800000000000,0,4034666666666668 c=52,8,1920,5,102,44,34,34 f=5 p=4a13565a4ab0";
    ("drnn", "dynet++", "values"),
    "t=403670a3d70a3d6d,4052533333333343,401e9ba5e353f7cf,405c760b560f14bb,405c800000000000,0,4034666666666668 c=52,8,1920,5,102,44,34,34 f=5 p=4a13565a4ab0";
    ("drnn", "pytorch", "acct"),
    "t=4051dfffffffffee,406a1c7ae147aeb1,401eac083126e979,4086930dc0382c6b,4084a00000000000,4087c4666666676d,0 c=325,0,0,5,325,325,325,0 f=325 p=b018b8483692";
    ("drnn", "pytorch", "values"),
    "t=4051dfffffffffee,406a1c7ae147aeb1,401eac083126e979,4086930dc0382c6b,4084a00000000000,4087c4666666676d,0 c=325,0,0,5,325,325,325,0 f=325 p=b018b8483692";
    ("berxit", "acrobat-aot", "acct"),
    "t=400a666666666669,3fe8000000000001,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,0,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-aot", "values"),
    "t=400a666666666669,3fe8000000000001,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,0,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-vm", "acct"),
    "t=400a666666666669,3fe8000000000001,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,4073e80000000014,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-vm", "values"),
    "t=400a666666666669,3fe8000000000001,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,4073e80000000014,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "dynet", "acct"),
    "t=4043ccccccccccbf,405ca66666666685,40200624dd2f1aa0,4064ae41c4bc342b,4063c00000000000,0,4021ffffffffffff c=74,4,6144,5,180,70,30,15 f=4 p=041247548577";
    ("berxit", "dynet", "values"),
    "t=4043ccccccccccbf,405ca66666666685,40200624dd2f1aa0,4064ae41c4bc342b,4063c00000000000,0,4021ffffffffffff c=74,4,6144,5,180,70,30,15 f=4 p=041247548577";
    ("berxit", "dynet++", "acct"),
    "t=4043ccccccccccbf,40595999999999bc,40200624dd2f1aa0,4060a42156cf385c,4060800000000000,0,4021ffffffffffff c=61,21,93696,5,180,40,0,15 f=4 p=041247548577";
    ("berxit", "dynet++", "values"),
    "t=4043ccccccccccbf,40595999999999bc,40200624dd2f1aa0,4060a42156cf385c,4060800000000000,0,4021ffffffffffff c=61,21,93696,5,180,40,0,15 f=4 p=041247548577";
    ("berxit", "pytorch", "acct"),
    "t=404c0cccccccccb3,4064ae66666666bc,40200624dd2f1aa0,4081c77139a2f657,4080400000000000,407fb800000000ec,0 c=255,0,0,5,255,255,255,0 f=255 p=558d6605d491";
    ("berxit", "pytorch", "values"),
    "t=404c0cccccccccb3,4064ae66666666bc,40200624dd2f1aa0,4081c77139a2f657,4080400000000000,407fb800000000ec,0 c=255,0,0,5,255,255,255,0 f=255 p=558d6605d491";
    ("stackrnn", "acrobat-aot", "acct"),
    "t=405510a3d70a3d5a,403326666666668d,400a9fbe76c8b43a,4084e2136b47e961,4080300000000000,0,404fccccccccccdc c=257,0,0,2,383,188,87,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-aot", "values"),
    "t=405510a3d70a3d5a,403326666666668d,400a9fbe76c8b43a,4084e2136b47e961,4080300000000000,0,404fccccccccccdc c=257,0,0,2,383,188,87,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-vm", "acct"),
    "t=405510a3d70a3d5a,403326666666668d,400a9fbe76c8b43a,4084e2136b47e961,4080300000000000,40a0cb666666644b,404fccccccccccdc c=257,0,0,2,383,188,87,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-vm", "values"),
    "t=405510a3d70a3d5a,403326666666668d,400a9fbe76c8b43a,4084e2136b47e961,4080300000000000,40a0cb666666644b,404fccccccccccdc c=257,0,0,2,383,188,87,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "dynet", "acct"),
    "t=405d428f5c28f5a0,4077575c28f5c2dd,405db4fdf3b645ac,408aaa318971e213,408d600000000000,0,404fccccccccccdc c=391,72,5920,79,532,319,192,106 f=39 p=5ec44fae982d";
    ("stackrnn", "dynet", "values"),
    "t=405d428f5c28f5a0,4077575c28f5c2dd,405db4fdf3b645ac,408aaa318971e213,408d600000000000,0,404fccccccccccdc c=391,72,5920,79,532,319,192,106 f=39 p=5ec44fae982d";
    ("stackrnn", "dynet++", "acct"),
    "t=405d428f5c28f5a0,4077575c28f5c2dd,405db4fdf3b645ac,408aaa318971e213,408d600000000000,0,404fccccccccccdc c=391,72,5920,79,532,319,192,106 f=39 p=5ec44fae982d";
    ("stackrnn", "dynet++", "values"),
    "t=405d428f5c28f5a0,4077575c28f5c2dd,405db4fdf3b645ac,408aaa318971e213,408d600000000000,0,404fccccccccccdc c=391,72,5920,79,532,319,192,106 f=39 p=5ec44fae982d";
    ("stackrnn", "pytorch", "acct"),
    "t=4069933333333312,4082a6b851eb8511,405db4fdf3b645ac,40a0268afcd8c382,409f880000000000,40a3ab19999996ac,0 c=930,0,0,79,930,930,930,0 f=930 p=2f841d7bb7ac";
    ("stackrnn", "pytorch", "values"),
    "t=4069933333333312,4082a6b851eb8511,405db4fdf3b645ac,40a0268afcd8c382,409f880000000000,40a3ab19999996ac,0 c=930,0,0,79,930,930,930,0 f=930 p=2f841d7bb7ac";
    ("beamsearch", "acrobat-aot", "acct"),
    "t=402fae147ae147b9,400cccccccccccc2,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,0,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-aot", "values"),
    "t=402fae147ae147b9,400cccccccccccc2,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,0,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-vm", "acct"),
    "t=402fae147ae147b9,400cccccccccccc2,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,40813ccccccccd5c,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-vm", "values"),
    "t=402fae147ae147b9,400cccccccccccc2,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,40813ccccccccd5c,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "dynet", "acct"),
    "t=4053ccccccccccb8,406cfae147ae1539,4033989374bc6a7e,4070ed189e2cbe32,4070e00000000000,0,4030333333333332 c=122,2,672,13,360,120,72,27 f=12 p=21b864a89d87";
    ("beamsearch", "dynet", "values"),
    "t=4053ccccccccccb8,406cfae147ae1539,4033989374bc6a7e,4070ed189e2cbe32,4070e00000000000,0,4030333333333332 c=122,2,672,13,360,120,72,27 f=12 p=21b864a89d87";
    ("beamsearch", "dynet++", "acct"),
    "t=4053ccccccccccb8,406cfae147ae1548,4033989374bc6a7e,4070cd12538fe1ed,4070c00000000000,0,402cccccccccccca c=121,1,288,13,360,120,72,24 f=12 p=21b864a89d87";
    ("beamsearch", "dynet++", "values"),
    "t=4053ccccccccccb8,406cfae147ae1548,4033989374bc6a7e,4070cd12538fe1ed,4070c00000000000,0,402cccccccccccca c=121,1,288,13,360,120,72,24 f=12 p=21b864a89d87";
    ("beamsearch", "pytorch", "acct"),
    "t=405fae147ae14788,40770a3d70a3d751,4033989374bc6a7e,40940177a9661b8e,4092680000000000,408c43333333348c,0 c=576,0,0,13,576,576,576,0 f=576 p=aff70d415144";
    ("beamsearch", "pytorch", "values"),
    "t=405fae147ae14788,40770a3d70a3d751,4033989374bc6a7e,40940177a9661b8e,4092680000000000,408c43333333348c,0 c=576,0,0,13,576,576,576,0 f=576 p=aff70d415144";
    ("moe", "acrobat-aot", "acct"),
    "t=40051eb851eb8520,3fe3333333333333,40084189374bc6a8,403504c74f02ad1a,4034000000000000,0,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-aot", "values"),
    "t=40051eb851eb8520,3fe3333333333333,40084189374bc6a8,403504c74f02ad1a,4034000000000000,0,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-vm", "acct"),
    "t=40051eb851eb8520,3fe3333333333333,40084189374bc6a8,403504c74f02ad1a,4034000000000000,4047ccccccccccdd,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-vm", "values"),
    "t=40051eb851eb8520,3fe3333333333333,40084189374bc6a8,403504c74f02ad1a,4034000000000000,4047ccccccccccdd,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "dynet", "acct"),
    "t=40151eb851eb851f,402e51eb851eb840,401e20c49ba5e354,403c76612506ed64,4042000000000000,0,4003333333333333 c=13,2,224,5,24,11,6,4 f=2 p=ae33cc09b7ff";
    ("moe", "dynet", "values"),
    "t=40151eb851eb851f,402e51eb851eb840,401e20c49ba5e354,403c76612506ed64,4042000000000000,0,4003333333333333 c=13,2,224,5,24,11,6,4 f=2 p=ae33cc09b7ff";
    ("moe", "dynet++", "acct"),
    "t=40151eb851eb851f,402ce147ae147ad2,401e20c49ba5e354,403a0ad7dd164564,4041000000000000,0,4003333333333333 c=12,3,4224,5,24,9,4,4 f=2 p=ae33cc09b7ff";
    ("moe", "dynet++", "values"),
    "t=40151eb851eb851f,402ce147ae147ad2,401e20c49ba5e354,403a0ad7dd164564,4041000000000000,0,4003333333333333 c=12,3,4224,5,24,9,4,4 f=2 p=ae33cc09b7ff";
    ("moe", "pytorch", "acct"),
    "t=401fae147ae147ab,4037147ae147ae11,401e20c49ba5e354,405401db65646ac2,4054800000000000,40501999999999a6,0 c=36,0,0,5,36,36,36,0 f=36 p=da3f47471fee";
    ("moe", "pytorch", "values"),
    "t=401fae147ae147ab,4037147ae147ae11,401e20c49ba5e354,405401db65646ac2,4054800000000000,40501999999999a6,0 c=36,0,0,5,36,36,36,0 f=36 p=da3f47471fee";
    ("rnn", "acrobat-baseline-aot", "acct"),
    "t=406128f5c28f5c14,40582e147ae147b1,400e3d70a3d70a3e,407e40ed8e922272,4075c00000000000,0,0 c=172,20,4864,2,624,152,36,0 f=1 p=2f576b7576b3";
    ("rnn", "acrobat-baseline-aot", "values"),
    "t=406128f5c28f5c14,40582e147ae147b1,400e3d70a3d70a3e,407e40ed8e922272,4075c00000000000,0,0 c=172,20,4864,2,624,152,36,0 f=1 p=2f576b7576b3";
    ("rnn", "acrobat-baseline-vm", "acct"),
    "t=406128f5c28f5c14,40582e147ae147b1,400e3d70a3d70a3e,407e40ed8e922272,4075c00000000000,408d9e66666667d8,0 c=172,20,4864,2,624,152,36,0 f=1 p=2f576b7576b3";
    ("rnn", "acrobat-baseline-vm", "values"),
    "t=406128f5c28f5c14,40582e147ae147b1,400e3d70a3d70a3e,407e40ed8e922272,4075c00000000000,408d9e66666667d8,0 c=172,20,4864,2,624,152,36,0 f=1 p=2f576b7576b3";
    ("rnn", "acrobat-agenda-aot", "acct"),
    "t=4049bd70a3d70a27,40610851eb851eec,400e3d70a3d70a3e,405c353d9b7b858a,4054800000000000,0,0 c=39,0,0,2,234,39,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-agenda-aot", "values"),
    "t=4049bd70a3d70a27,40610851eb851eec,400e3d70a3d70a3e,405c353d9b7b858a,4054800000000000,0,0 c=39,0,0,2,234,39,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-agenda-vm", "acct"),
    "t=4049bd70a3d70a27,40610851eb851eec,400e3d70a3d70a3e,405c353d9b7b858a,4054800000000000,4085219999999a70,0 c=39,0,0,2,234,39,6,0 f=1 p=9dbe217ab1c3";
    ("rnn", "acrobat-agenda-vm", "values"),
    "t=4049bd70a3d70a27,40610851eb851eec,400e3d70a3d70a3e,405c353d9b7b858a,4054800000000000,4085219999999a70,0 c=39,0,0,2,234,39,6,0 f=1 p=9dbe217ab1c3";
    ("treelstm", "acrobat-baseline-aot", "acct"),
    "t=409568a3d70a3fcb,408e951eb851e78a,400a7ae147ae147b,40a2d2945e59951a,4095b00000000000,0,0 c=692,250,178400,2,6228,442,181,0 f=1 p=9ee188b0a428";
    ("treelstm", "acrobat-baseline-aot", "values"),
    "t=409568a3d70a3fcb,408e951eb851e78a,400a7ae147ae147b,40a2d2945e59951a,4095b00000000000,0,0 c=692,250,178400,2,6228,442,181,0 f=1 p=9ee188b0a428";
    ("treelstm", "acrobat-baseline-vm", "acct"),
    "t=409568a3d70a3fcb,408e951eb851e78a,400a7ae147ae147b,40a2d2945e59951a,4095b00000000000,40c2873333333d9e,0 c=692,250,178400,2,6228,442,181,0 f=1 p=9ee188b0a428";
    ("treelstm", "acrobat-baseline-vm", "values"),
    "t=409568a3d70a3fcb,408e951eb851e78a,400a7ae147ae147b,40a2d2945e59951a,4095b00000000000,40c2873333333d9e,0 c=692,250,178400,2,6228,442,181,0 f=1 p=9ee188b0a428";
    ("treelstm", "acrobat-agenda-aot", "acct"),
    "t=4040d47ae147ae0b,4062b6147ae147af,400a7ae147ae147b,406f7de90cc67ffa,4069800000000000,0,0 c=100,0,0,2,153,12,2,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-agenda-aot", "values"),
    "t=4040d47ae147ae0b,4062b6147ae147af,400a7ae147ae147b,406f7de90cc67ffa,4069800000000000,0,0 c=100,0,0,2,153,12,2,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-agenda-vm", "acct"),
    "t=4040d47ae147ae0b,4062b6147ae147af,400a7ae147ae147b,406f7de90cc67ffa,4069800000000000,40b29acccccccc8d,0 c=100,0,0,2,153,12,2,0 f=1 p=5f098e4e55e5";
    ("treelstm", "acrobat-agenda-vm", "values"),
    "t=4040d47ae147ae0b,4062b6147ae147af,400a7ae147ae147b,406f7de90cc67ffa,4069800000000000,40b29acccccccc8d,0 c=100,0,0,2,153,12,2,0 f=1 p=5f098e4e55e5";
    ("mvrnn", "acrobat-baseline-aot", "acct"),
    "t=40602b851eb851d8,405723d70a3d70a9,4016f7ced916872c,407205218b62e2c2,406e000000000000,0,0 c=118,48,81472,2,588,70,15,0 f=1 p=4817149911cf";
    ("mvrnn", "acrobat-baseline-aot", "values"),
    "t=40602b851eb851d8,405723d70a3d70a9,4016f7ced916872c,407205218b62e2c2,406e000000000000,0,0 c=118,48,81472,2,588,70,15,0 f=1 p=4817149911cf";
    ("mvrnn", "acrobat-baseline-vm", "acct"),
    "t=40602b851eb851d8,405723d70a3d70a9,4016f7ced916872c,407205218b62e2c2,406e000000000000,4096e19999999871,0 c=118,48,81472,2,588,70,15,0 f=1 p=4817149911cf";
    ("mvrnn", "acrobat-baseline-vm", "values"),
    "t=40602b851eb851d8,405723d70a3d70a9,4016f7ced916872c,407205218b62e2c2,406e000000000000,4096e19999999871,0 c=118,48,81472,2,588,70,15,0 f=1 p=4817149911cf";
    ("mvrnn", "acrobat-agenda-aot", "acct"),
    "t=4030b851eb851ebd,4049f0a3d70a3d38,4016f7ced916872c,40602e08a8b11b8f,405b000000000000,0,0 c=52,0,0,2,76,10,2,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-agenda-aot", "values"),
    "t=4030b851eb851ebd,4049f0a3d70a3d38,4016f7ced916872c,40602e08a8b11b8f,405b000000000000,0,0 c=52,0,0,2,76,10,2,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-agenda-vm", "acct"),
    "t=4030b851eb851ebd,4049f0a3d70a3d38,4016f7ced916872c,40602e08a8b11b8f,405b000000000000,4091accccccccd21,0 c=52,0,0,2,76,10,2,0 f=1 p=811a37ef954f";
    ("mvrnn", "acrobat-agenda-vm", "values"),
    "t=4030b851eb851ebd,4049f0a3d70a3d38,4016f7ced916872c,40602e08a8b11b8f,405b000000000000,4091accccccccd21,0 c=52,0,0,2,76,10,2,0 f=1 p=811a37ef954f";
    ("birnn", "acrobat-baseline-aot", "acct"),
    "t=406e07ae147ae120,40654147ae147ba9,400bbe76c8b43958,40882c5fdfc1d14a,4082700000000000,0,0 c=293,117,21632,2,1092,176,16,0 f=1 p=0299d8a34e6b";
    ("birnn", "acrobat-baseline-aot", "values"),
    "t=406e07ae147ae120,40654147ae147ba9,400bbe76c8b43958,40882c5fdfc1d14a,4082700000000000,0,0 c=293,117,21632,2,1092,176,16,0 f=1 p=0299d8a34e6b";
    ("birnn", "acrobat-baseline-vm", "acct"),
    "t=406e07ae147ae120,40654147ae147ba9,400bbe76c8b43958,40882c5fdfc1d14a,4082700000000000,40a4286666666355,0 c=293,117,21632,2,1092,176,16,0 f=1 p=0299d8a34e6b";
    ("birnn", "acrobat-baseline-vm", "values"),
    "t=406e07ae147ae120,40654147ae147ba9,400bbe76c8b43958,40882c5fdfc1d14a,4082700000000000,40a4286666666355,0 c=293,117,21632,2,1092,176,16,0 f=1 p=0299d8a34e6b";
    ("birnn", "acrobat-agenda-aot", "acct"),
    "t=405573333333331c,406d870a3d70a44a,400bbe76c8b43958,406f58256b2755f5,4065800000000000,0,0 c=84,0,0,2,390,68,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-agenda-aot", "values"),
    "t=405573333333331c,406d870a3d70a44a,400bbe76c8b43958,406f58256b2755f5,4065800000000000,0,0 c=84,0,0,2,390,68,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-agenda-vm", "acct"),
    "t=405573333333331c,406d870a3d70a44a,400bbe76c8b43958,406f58256b2755f5,4065800000000000,40a05f999999979d,0 c=84,0,0,2,390,68,12,0 f=1 p=c38c551db9c2";
    ("birnn", "acrobat-agenda-vm", "values"),
    "t=405573333333331c,406d870a3d70a44a,400bbe76c8b43958,406f58256b2755f5,4065800000000000,40a05f999999979d,0 c=84,0,0,2,390,68,12,0 f=1 p=c38c551db9c2";
    ("nestedrnn", "acrobat-baseline-aot", "acct"),
    "t=40a5448f5c28f264,409dc63d70a3c750,40084189374bc6a8,40cc6afe778e424d,40c5980000000000,0,405119999999999e c=5526,310,27360,2,12374,5216,1927,114 f=34 p=a435e30b5b9c";
    ("nestedrnn", "acrobat-baseline-aot", "values"),
    "t=40a5448f5c28f264,409dc63d70a3c750,40084189374bc6a8,40cc6afe778e424d,40c5980000000000,0,405119999999999e c=5526,310,27360,2,12374,5216,1927,114 f=34 p=a435e30b5b9c";
    ("nestedrnn", "acrobat-baseline-vm", "acct"),
    "t=40a5448f5c28f264,409dc63d70a3c750,40084189374bc6a8,40cc6afe778e424d,40c5980000000000,40dad6d9999974f5,405119999999999e c=5526,310,27360,2,12374,5216,1927,114 f=34 p=a435e30b5b9c";
    ("nestedrnn", "acrobat-baseline-vm", "values"),
    "t=40a5448f5c28f264,409dc63d70a3c750,40084189374bc6a8,40cc6afe778e424d,40c5980000000000,40dad6d9999974f5,405119999999999e c=5526,310,27360,2,12374,5216,1927,114 f=34 p=a435e30b5b9c";
    ("nestedrnn", "acrobat-agenda-aot", "acct"),
    "t=4087fe666666688a,40a0718f5c28f05d,40084189374bc6a8,40b20512a38509be,40ab000000000000,0,405119999999999e c=1726,0,0,2,3490,1271,295,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-agenda-aot", "values"),
    "t=4087fe666666688a,40a0718f5c28f05d,40084189374bc6a8,40b20512a38509be,40ab000000000000,0,405119999999999e c=1726,0,0,2,3490,1271,295,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-agenda-vm", "acct"),
    "t=4087fe666666688a,40a0718f5c28f05d,40084189374bc6a8,40b20512a38509be,40ab000000000000,40d48959999991c5,405119999999999e c=1726,0,0,2,3490,1271,295,114 f=34 p=519a13d46c5b";
    ("nestedrnn", "acrobat-agenda-vm", "values"),
    "t=4087fe666666688a,40a0718f5c28f05d,40084189374bc6a8,40b20512a38509be,40ab000000000000,40d48959999991c5,405119999999999e c=1726,0,0,2,3490,1271,295,114 f=34 p=519a13d46c5b";
    ("drnn", "acrobat-baseline-aot", "acct"),
    "t=404deb851eb851cf,4045147ae147ae26,4009374bc6a7ef9e,405ef694a3e48a82,4059800000000000,0,4034666666666668 c=49,9,2048,2,272,40,0,34 f=5 p=c91c8325c2d0";
    ("drnn", "acrobat-baseline-aot", "values"),
    "t=404deb851eb851cf,4045147ae147ae26,4009374bc6a7ef9e,405ef694a3e48a82,4059800000000000,0,4034666666666668 c=49,9,2048,2,272,40,0,34 f=5 p=c91c8325c2d0";
    ("drnn", "acrobat-baseline-vm", "acct"),
    "t=404deb851eb851cf,4045147ae147ae26,4009374bc6a7ef9e,405ef694a3e48a82,4059800000000000,40856a6666666742,4034666666666668 c=49,9,2048,2,272,40,0,34 f=5 p=c91c8325c2d0";
    ("drnn", "acrobat-baseline-vm", "values"),
    "t=404deb851eb851cf,4045147ae147ae26,4009374bc6a7ef9e,405ef694a3e48a82,4059800000000000,40856a6666666742,4034666666666668 c=49,9,2048,2,272,40,0,34 f=5 p=c91c8325c2d0";
    ("drnn", "acrobat-agenda-aot", "acct"),
    "t=401deb851eb851e9,4035570a3d70a3c7,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,0,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-agenda-aot", "values"),
    "t=401deb851eb851e9,4035570a3d70a3c7,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,0,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-agenda-vm", "acct"),
    "t=401deb851eb851e9,4035570a3d70a3c7,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,407faccccccccdb8,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("drnn", "acrobat-agenda-vm", "values"),
    "t=401deb851eb851e9,4035570a3d70a3c7,4009374bc6a7ef9e,40425c822322d7e4,4041000000000000,407faccccccccdb8,4034666666666668 c=15,0,0,2,34,5,0,34 f=5 p=01cba8b98c6b";
    ("berxit", "acrobat-baseline-aot", "acct"),
    "t=404c0cccccccccb3,4044400000000010,400c189374bc6a7f,406e00ce3c5de5ae,4062800000000000,0,4021ffffffffffff c=72,4,6144,2,255,68,0,15 f=4 p=208d906a90bb";
    ("berxit", "acrobat-baseline-aot", "values"),
    "t=404c0cccccccccb3,4044400000000010,400c189374bc6a7f,406e00ce3c5de5ae,4062800000000000,0,4021ffffffffffff c=72,4,6144,2,255,68,0,15 f=4 p=208d906a90bb";
    ("berxit", "acrobat-baseline-vm", "acct"),
    "t=404c0cccccccccb3,4044400000000010,400c189374bc6a7f,406e00ce3c5de5ae,4062800000000000,407fb800000000ec,4021ffffffffffff c=72,4,6144,2,255,68,0,15 f=4 p=208d906a90bb";
    ("berxit", "acrobat-baseline-vm", "values"),
    "t=404c0cccccccccb3,4044400000000010,400c189374bc6a7f,406e00ce3c5de5ae,4062800000000000,407fb800000000ec,4021ffffffffffff c=72,4,6144,2,255,68,0,15 f=4 p=208d906a90bb";
    ("berxit", "acrobat-agenda-aot", "acct"),
    "t=400a666666666669,402775c28f5c28d6,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,0,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-agenda-aot", "values"),
    "t=400a666666666669,402775c28f5c28d6,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,0,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-agenda-vm", "acct"),
    "t=400a666666666669,402775c28f5c28d6,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,4073e80000000014,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("berxit", "acrobat-agenda-vm", "values"),
    "t=400a666666666669,402775c28f5c28d6,400c189374bc6a7f,4057a5cc79265c7b,4055000000000000,4073e80000000014,4021ffffffffffff c=40,0,0,2,15,4,0,15 f=4 p=bc0ea860935e";
    ("stackrnn", "acrobat-baseline-aot", "acct"),
    "t=4069933333333312,4061a47ae147ae49,400a9fbe76c8b43a,4097d8d626c588fd,4090c80000000000,0,404fccccccccccdc c=535,73,6048,2,930,462,185,106 f=39 p=8443a378c974";
    ("stackrnn", "acrobat-baseline-aot", "values"),
    "t=4069933333333312,4061a47ae147ae49,400a9fbe76c8b43a,4097d8d626c588fd,4090c80000000000,0,404fccccccccccdc c=535,73,6048,2,930,462,185,106 f=39 p=8443a378c974";
    ("stackrnn", "acrobat-baseline-vm", "acct"),
    "t=4069933333333312,4061a47ae147ae49,400a9fbe76c8b43a,4097d8d626c588fd,4090c80000000000,40a3ab19999996ac,404fccccccccccdc c=535,73,6048,2,930,462,185,106 f=39 p=8443a378c974";
    ("stackrnn", "acrobat-baseline-vm", "values"),
    "t=4069933333333312,4061a47ae147ae49,400a9fbe76c8b43a,4097d8d626c588fd,4090c80000000000,40a3ab19999996ac,404fccccccccccdc c=535,73,6048,2,930,462,185,106 f=39 p=8443a378c974";
    ("stackrnn", "acrobat-agenda-aot", "acct"),
    "t=405510a3d70a3d5a,406f04cccccccdd0,400a9fbe76c8b43a,40856a48e1b60de7,4080f00000000000,0,404fccccccccccdc c=269,0,0,2,383,188,75,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-agenda-aot", "values"),
    "t=405510a3d70a3d5a,406f04cccccccdd0,400a9fbe76c8b43a,40856a48e1b60de7,4080f00000000000,0,404fccccccccccdc c=269,0,0,2,383,188,75,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-agenda-vm", "acct"),
    "t=405510a3d70a3d5a,406f04cccccccdd0,400a9fbe76c8b43a,40856a48e1b60de7,4080f00000000000,40a0cb666666644b,404fccccccccccdc c=269,0,0,2,383,188,75,106 f=39 p=2f2e72cc1c8f";
    ("stackrnn", "acrobat-agenda-vm", "values"),
    "t=405510a3d70a3d5a,406f04cccccccdd0,400a9fbe76c8b43a,40856a48e1b60de7,4080f00000000000,40a0cb666666644b,404fccccccccccdc c=269,0,0,2,383,188,75,106 f=39 p=2f2e72cc1c8f";
    ("beamsearch", "acrobat-baseline-aot", "acct"),
    "t=405fae147ae14788,40559999999999a7,4008c49ba5e353f8,4070977fd6e51c18,4068c00000000000,0,402cccccccccccca c=97,1,288,2,576,96,0,24 f=12 p=8e28dc3f6970";
    ("beamsearch", "acrobat-baseline-aot", "values"),
    "t=405fae147ae14788,40559999999999a7,4008c49ba5e353f8,4070977fd6e51c18,4068c00000000000,0,402cccccccccccca c=97,1,288,2,576,96,0,24 f=12 p=8e28dc3f6970";
    ("beamsearch", "acrobat-baseline-vm", "acct"),
    "t=405fae147ae14788,40559999999999a7,4008c49ba5e353f8,4070977fd6e51c18,4068c00000000000,408c43333333348c,402cccccccccccca c=97,1,288,2,576,96,0,24 f=12 p=8e28dc3f6970";
    ("beamsearch", "acrobat-baseline-vm", "values"),
    "t=405fae147ae14788,40559999999999a7,4008c49ba5e353f8,4070977fd6e51c18,4068c00000000000,408c43333333348c,402cccccccccccca c=97,1,288,2,576,96,0,24 f=12 p=8e28dc3f6970";
    ("beamsearch", "acrobat-agenda-aot", "acct"),
    "t=402fae147ae147b9,4045f5c28f5c2903,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,0,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-agenda-aot", "values"),
    "t=402fae147ae147b9,4045f5c28f5c2903,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,0,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-agenda-vm", "acct"),
    "t=402fae147ae147b9,4045f5c28f5c2903,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,40813ccccccccd5c,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("beamsearch", "acrobat-agenda-vm", "values"),
    "t=402fae147ae147b9,4045f5c28f5c2903,4008c49ba5e353f8,40615ce1af3821b1,405f000000000000,40813ccccccccd5c,402cccccccccccca c=60,0,0,2,72,12,0,24 f=12 p=864ac7024480";
    ("moe", "acrobat-baseline-aot", "acct"),
    "t=401fae147ae147ab,4015c28f5c28f5be,40084189374bc6a8,404923aa10c828de,4042000000000000,0,4003333333333333 c=16,4,672,2,36,12,3,4 f=2 p=19509c6208e7";
    ("moe", "acrobat-baseline-aot", "values"),
    "t=401fae147ae147ab,4015c28f5c28f5be,40084189374bc6a8,404923aa10c828de,4042000000000000,0,4003333333333333 c=16,4,672,2,36,12,3,4 f=2 p=19509c6208e7";
    ("moe", "acrobat-baseline-vm", "acct"),
    "t=401fae147ae147ab,4015c28f5c28f5be,40084189374bc6a8,404923aa10c828de,4042000000000000,40501999999999a6,4003333333333333 c=16,4,672,2,36,12,3,4 f=2 p=19509c6208e7";
    ("moe", "acrobat-baseline-vm", "values"),
    "t=401fae147ae147ab,4015c28f5c28f5be,40084189374bc6a8,404923aa10c828de,4042000000000000,40501999999999a6,4003333333333333 c=16,4,672,2,36,12,3,4 f=2 p=19509c6208e7";
    ("moe", "acrobat-agenda-aot", "acct"),
    "t=40051eb851eb8520,401cf5c28f5c28fa,40084189374bc6a8,403504c74f02ad1a,4034000000000000,0,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-agenda-aot", "values"),
    "t=40051eb851eb8520,401cf5c28f5c28fa,40084189374bc6a8,403504c74f02ad1a,4034000000000000,0,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-agenda-vm", "acct"),
    "t=40051eb851eb8520,401cf5c28f5c28fa,40084189374bc6a8,403504c74f02ad1a,4034000000000000,4047ccccccccccdd,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa";
    ("moe", "acrobat-agenda-vm", "values"),
    "t=40051eb851eb8520,401cf5c28f5c28fa,40084189374bc6a8,403504c74f02ad1a,4034000000000000,4047ccccccccccdd,4003333333333333 c=8,0,0,2,12,4,1,4 f=2 p=b9608a3fdbaa"
  ]

let test_model id () =
  List.iter
    (fun (preset, framework, mode) ->
      List.iter
        (fun (label, compute_values) ->
          let key = id, preset, label in
          let actual = run_case id (framework, mode) ~compute_values in
          let expected = try List.assoc key pins with Not_found -> "<no pin>" in
          Alcotest.(check string) (Fmt.str "%s %s %s" id preset label) expected actual)
        [ "acct", false; "values", true ])
    presets

let suite =
  List.map
    (fun id -> Alcotest.test_case ("virtual clock golden: " ^ id) `Quick (test_model id))
    Models.tiny_ids
