type build = {
  image : Eric_rv.Program.t;
  package : Package.t;
  stats : Encrypt.stats;
  plain_size : int;
  package_size : int;
}

type prepared = {
  p_image : Eric_rv.Program.t;
  p_plain_size : int;
  p_prep : Encrypt.prepared;
}

let count_build b =
  if Eric_telemetry.Control.is_enabled () then begin
    Eric_telemetry.Registry.inc "build.builds_total";
    Eric_telemetry.Registry.inc ~by:(Int64.of_int b.package_size) "build.package_bytes"
  end;
  b

let package_image ?obf ~mode ~key image =
  let package, stats = Encrypt.encrypt ?obf ~key ~mode image in
  count_build
    {
      image;
      package;
      stats;
      plain_size = Eric_rv.Program.binary_size image;
      package_size = Package.size package;
    }

let prepare_image ?obf ~mode image =
  {
    p_image = image;
    p_plain_size = Eric_rv.Program.binary_size image;
    p_prep = Encrypt.prepare ?obf ~mode image;
  }

let personalize ~key prepared =
  let package, stats = Encrypt.personalize ~key prepared.p_prep in
  count_build
    {
      image = prepared.p_image;
      package;
      stats;
      plain_size = prepared.p_plain_size;
      package_size = Package.size package;
    }

let prepare ?options ?obf ~mode source =
  Result.map (prepare_image ?obf ~mode) (Eric_cc.Driver.compile ?options source)

let build ?options ?obf ~mode ~key source =
  Result.map (package_image ?obf ~mode ~key) (Eric_cc.Driver.compile ?options source)

let build_multi ?options ?obf ~mode ~keys source =
  Result.map
    (fun prepared -> List.map (fun (name, key) -> (name, personalize ~key prepared)) keys)
    (prepare ?options ?obf ~mode source)
