"""Byte-identical CLI output: the SHA-256 of stdout and the exit status of
small commands covering every subcommand and both formats.

A change that means to alter the output regenerates a digest with

    PYTHONPATH=src python -m polysum.cli ARGV > out; echo $?; sha256sum out

and says in its description why the output changed.
"""

import hashlib

import pytest

from polysum import cli

GOLDEN = [
    ("except --sum p4+p5+p8 --bound 20000", 0,
     "357883759d713d8dafc623ed96264e3b7d2746598d3ade3e5f3686179fb45b9e"),
    ("except --sum p8+p8+2p8 --domain Z --bound 20000", 0,
     "a5a589d4d594fdeac5f261ce1122bac11cb86ae72ef31b4eb6aed677738b01e7"),
    ("except --sum p20 --offsets 1,5 --bound 20000", 0,
     "7dbf0f73de5d0e299a9aa64f33e58f8a4c317f53563ab3c3e2760e217ff1acf1"),
    ("except --sum 5p8+7p9+11p10+13p12+3p20 --bound 20000", 0,
     "061be1cac497e0a7523b78f35cf22a37c6d7946b3ebbfff09bf496b6fe959d60"),
    ("except --sum p4+p4+p4 --bound 5000 --format csv", 0,
     "6ff97a5edbd433ece2586cb928d25f5affec478371a1c1e960b4930b048f829f"),
    ("screen --preset thm-1.3", 0,
     "f871d44bc895a28f632bd39a9e1e833d17ae09d4493ccb9a38631d8fb8e0b9f5"),
    ("screen --preset unique-29", 0,
     "841328101353379bfaf3501345714879053d8882f9f1d10f393bdb3523c0c3fe"),
    ("qform-except --form 1,1,1 --bound 20000", 0,
     "3976e2baae34386e5e2a2a96594f6d7a737ed8a21c1debaff24124142bcf4f37"),
    ("qform-except --form 1,3,24 --bound 20000 --format csv", 0,
     "85545f22a29e4d7caf49549cc8d2a30ca8430c7b35947a24d0775c16781713a9"),
    ("qform-verify-catalog --bound 10000", 0,
     "1c838e7ed077d958495bb270d788d4361cb15112ba3ed8cd145ada34f9f60231"),
    ("reduce --sum p3+p4+p5", 0,
     "02f7494e134315d573e8ec2f4256d7e9935e1f9f59d06bb98bea6bfbafe1d9a3"),
    ("verify-reduction --bound 2000", 0,
     "90a29bf9fea31932a428152ade145f150012ac14098ae079f6b16b4317e4d7ea"),
    ("verify-reduction --sum p3+p4+p5 --domain Z --bound 2000", 0,
     "cecc2444b5fb20ae48e428a739aaed39c196222d888c1bac15c80d84264d81ae"),
    ("prime-scan --a 3 --bound 20000", 0,
     "f28c1f950090d62de36f6195045264fb0da633e485604152b6d56b0b5f11cb03"),
    ("prime-scan --a 15 --bound 20000 --format csv", 0,
     "c03396ea2b198abf63d8e6e18941cc3523cdf4a14d77a32dead28d4f1d9c0cec"),
    ("prime-scan --a 2 --universe all --bound 20000", 0,
     "c9644bc6190654509cc6d4f8a98e1d682f9924e3404b08651306b476f0a085a3"),
    ("prime-scan --a 2 --shape polygonal --order 5 --universe odd"
     " --prime-mod 4 --prime-residue 1 --bound 20000", 0,
     "5f256b8f8ad2884c6c6eef73db25b1c89c5733deab4e4e6474def52dadbc5f55"),
    ("descent-check --op split2n --args 11", 0,
     "48c3e9df213d6a86f9a7debba04ecc69809ef044b742745662ecc6eb70b4e1b8"),
    ("descent-check --op mod5 --args 3,4", 0,
     "2ec0acfb48a885ee3bdea7beb60149679ce093b2cd1a830ea02e631c5eff5250"),
    ("descent-check --op split2n --args 3", 2,
     "26e40bb719cdbda5400bdb4b0b0e4568424deb19bf8287b76720d7e15e52f6ba"),
    ("conjecture --preset 1.2 --bound 5000", 0,
     "08e608529b11ad2374d9ac8f97c0f999d01c1d6d85dd04323b15950025d1e988"),
    ("conjecture --preset 1.7 --bound 20000", 1,
     "d0e6481c3c6ad07e25473c63d1dbb95945bec3af570b4702f004ca63b38f1391"),
    ("conjecture --preset 1.8-spot --bound 1000", 0,
     "ebe1c2475dc3c799a08227e69c8c8c232da4a125b7023f4451291dcf8f6b6856"),
    ("except --sum p4+p4 --bound 20000", 0,
     "8346d5cdfae266598de8d0dc38cf6abd0e5de4854bf6672ee9ec971bf574d451"),
    ("except --sum p4+p4 --offsets 0,3 --bound 20000", 0,
     "83fa6e91bafd85e7308e4d66f83ceb87f0dc7aab80c53602c84cea7e53b036d6"),
    ("except --sum p3+p4+p5+p6+p7 --offsets 0,2,9 --bound 20000", 0,
     "bece90f65aff7ce20452f8d30bd97278a1ef35aaacecb8d60c69fa8d0f153fd2"),
    ("except --sum p5+p5+p5 --domain Z --offsets 1,2 --bound 20000", 0,
     "0ac2fc9141fecae2e5a84ee419c4c256f78c90f3be6ddb3464f8dccf33a75ace"),
    ("prime-scan --a 2 --prime-mod 10007 --prime-residue 1 --bound 20000", 0,
     "27487e1774af47062685170246b3cb0231c428b3884235c3141439f92b0ff332"),
    # bounds of several pair-step tiles
    ("except --sum p4+p4+p5 --bound 1000000", 0,
     "e8a5504ccfef3400569c91e4adf08939ba9cb263f868a4ad17d2ec66fdccc917"),
    ("qform-except --form 1,1,1 --bound 1000000", 0,
     "cdd90ea492118eceea73dbc24fe12c5853bb3dbca5d1c93629f98dbb138846a3"),
    # results of three fold windows
    ("qform-except --form 1,1,1 --bound 5000000", 0,
     "c5c9d9f0a7825cc65c582da4984e7579c1ac58aaa256d6ad078eee90b06ad507"),
    ("qform-except --form 2,3,5 --bound 5000000", 0,
     "9ea1a1da7c5314eefb8d67be22638028ed978a324cb3d7bf055374d6d627135f"),
    # records of several _FORMAT_SLICE-entry slices
    ("prime-scan --a 2 --universe all --bound 300000 --limit 1000000", 0,
     "cb0e0f0f858b0eaaae258f76775d9c910ccd8b9c4a9fbb563d176ef3b66e3868"),
    ("except --sum p4+p4 --bound 300000 --format csv", 0,
     "a3b0996d76af8b3d2535306cc1cafa002f90033bd4a3ae8353ea478ed5fa865d"),
    ("except --sum p4+p4+p4 --bound 600000", 0,
     "3e7f82e21411c1400334f28a11af4a6a92368d7232667ad618b6f02b5e957164"),
    # packed eliminations down to blocked sparse gathers, with and without a
    # prime filter
    ("prime-scan --a 29 --bound 300000", 0,
     "69e234bd34c885f48e50327951d4f4fc0bfb7cc55c58d147e42ad0edabc2218b"),
    ("conjecture --preset 1.7 --bound 300000", 0,
     "8f9400de127fe8c9debd819a0eb3edd3ff5ab2de90872f83a533731db61d425a"),
    # a filter modulus above the bound
    ("prime-scan --a 2 --prime-mod 12000000 --prime-residue 1 --bound 100000",
     0, "4482a2d49fa73d98f2f56a1185892be8ff9fcccf86960772d9a1d63dc2a915bb"),
    # unequal value streams over four pair tiles, and the catalog at the
    # form-catalog workload's bound
    ("qform-except --form 1,3,24 --bound 1000000", 0,
     "dd591a6bb4b590f4c61d0967f628220734c54281cee9a1e97a131af2d2528fc0"),
    ("qform-verify-catalog --bound 300000", 0,
     "b0d827612ff6a03b64f0b716ea406aba0a548f31ed9bedb719292164fc2dadd7"),
    # a class of primes packed in two chunks
    ("prime-scan --a 29 --bound 1200000", 0,
     "aab4ca4ad8e6b2a398aa13f5c5478527e729666976cc879c2461227702d2cc58"),
    # bounds at the edges of the pair step's tiles of 2^18 values: one tile
    # and one entry, with a long listed head; two tiles less one entry; two
    # tiles and two entries
    ("qform-except --form 1,1,1 --bound 262144 --limit 100000", 0,
     "f2281d8f64c7c8c8d8e990aa4fcfbb13a8dfb6052204ecc65b07fa5233c55808"),
    ("qform-except --form 2,3,5 --bound 524287", 0,
     "d9eeec7d908050f25f9561bbf437a5ebdb44201dae85d8271e7f0e5cf4197877"),
    ("except --sum p4+p5 --bound 524289", 0,
     "2f943b95af4715c6d9d3746d82f3ae598937daf44d62eb9f40e67f0c8ddab521"),
    # prime filters through the pair step: a dense list over four tiles,
    # and q and r both even, which no odd prime passes
    ("prime-scan --a 1 --prime-mod 503 --prime-residue 1 --universe all"
     " --bound 1000000 --limit 100", 0,
     "9ff4ca68b353a4e147b0039a096207c4c49b2c61b392e877e456ffa848c392c2"),
    ("prime-scan --a 3 --prime-mod 4 --prime-residue 2 --bound 100000", 0,
     "536478432665e43705302ca861296569642fbe543673ef05ee22f2ecfc6e34f1"),
    # a coprime universe of three prime divisors over [0, bound], and an
    # odd universe under a both-even filter
    ("prime-scan --a 30 --prime-mod 1009 --prime-residue 3 --bound 600000",
     0, "b47602316fd675adadb430f638a1d129db5e7d94e77770c6a4949c023a5c68cc"),
    ("prime-scan --a 6 --prime-mod 6 --prime-residue 2 --universe odd"
     " --bound 100000", 0,
     "6e3186b869e7dda62cd2de89f479acd24800c61da08f6353631392826715036f"),
]


@pytest.mark.parametrize("argv,status,digest", GOLDEN,
                         ids=[argv for argv, _, _ in GOLDEN])
def test_golden_stdout(capsys, argv, status, digest):
    assert cli.main(argv.split()) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
