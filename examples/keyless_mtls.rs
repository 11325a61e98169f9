//! Remote mTLS acceleration and the keyless mode (§4.1.3, App. B).
//!
//! A full cryptographic round trip through the key server: the tenant
//! entrusts (or, in keyless mode, withholds) its private key; an on-node
//! proxy and a gateway backend complete a handshake without ever holding
//! the private key; application bytes then flow over the derived ChaCha20
//! channel. Ends with the Fig. 23 completion-time comparison.
//!
//! ```sh
//! cargo run --example keyless_mtls
//! ```

// Examples, like tests, assert the scenario works via unwrap.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use canal::crypto::accel::{AsymmetricBackend, LocalBatchBackend, SoftwareBackend};
use canal::crypto::dh::{DhKeyPair, DhParams};
use canal::crypto::keyserver::{
    KeyServer, KeyServerPlacement, RemoteKeyServerBackend, RequesterId,
};
use canal::crypto::mtls::MtlsEndpoint;
use canal::net::TenantId;

fn main() {
    // --- The multi-tenant key server holds tenant1's private key,
    //     encrypted in memory. ---
    let mut ks = KeyServer::new(0x5EED_CAFE);
    let tenant = TenantId(1);
    ks.store_tenant_key(tenant, 0x0123_4567_89AB_CDEF);

    // The on-node proxy pre-establishes its verified requester channel.
    let proxy = RequesterId(42);
    let channel_secret = 0xC0FF_EE00_1234_5678;
    ks.register_requester(proxy, channel_secret);

    // --- A client workload opens an mTLS connection to the gateway. ---
    // The client side generates its ephemeral pair; the tenant side of the
    // DH is computed *at the key server* — the node never sees the key.
    let client = DhKeyPair::generate(DhParams::DEFAULT, 0xE9E9_0001);
    let sealed = ks
        .handle_request(proxy, tenant, client.public)
        .expect("verified requester");
    let node_secret = sealed.unseal(channel_secret).expect("channel intact");
    let client_secret = client.agree(ks.tenant_public(tenant).unwrap());
    assert_eq!(node_secret, client_secret);
    println!("key server derived the symmetric key; node never held the private key");

    // Both endpoints install the derived secret and exchange records.
    let mut node_end = MtlsEndpoint::new(1001, 0);
    let mut gw_end = MtlsEndpoint::new(2002, 0);
    node_end.install_secret(node_secret, 2002).unwrap();
    gw_end.install_secret(client_secret, 1001).unwrap();
    let record = node_end.seal(b"GET /orders HTTP/1.1\r\nHost: svc\r\n\r\n").unwrap();
    let plaintext = gw_end.open(&record).unwrap();
    println!(
        "gateway decrypted {} bytes over the ChaCha20 session channel",
        plaintext.len()
    );

    // An unverified requester gets nothing.
    let err = ks.handle_request(RequesterId(666), tenant, client.public);
    println!("unverified requester -> {err:?}");

    // --- Keyless mode (App. B): the financial tenant keeps its key
    //     on-premises; same protocol, higher RTT, zero key custody. ---
    let mut onprem = KeyServer::new(0xFA11_BACC);
    let fin = TenantId(77);
    onprem.store_tenant_key(fin, 0xFEED_F00D_0000_1111);
    onprem.register_requester(proxy, channel_secret);
    let sealed = onprem.handle_request(proxy, fin, client.public).unwrap();
    sealed.unseal(channel_secret).unwrap();
    println!("\nkeyless mode: handshake served from the tenant's own premises");

    // --- Fig. 23: completion time per backend. ---
    println!("\nasymmetric completion time by backend (1 vs 64 concurrent new conns):");
    let backends: Vec<Box<dyn AsymmetricBackend>> = vec![
        Box::new(SoftwareBackend::default()),
        Box::new(LocalBatchBackend::default()),
        Box::new(RemoteKeyServerBackend::new(KeyServerPlacement::LocalAz)),
        Box::new(RemoteKeyServerBackend::new(KeyServerPlacement::OnPremKeyless)),
    ];
    for b in &backends {
        println!(
            "  {:<22} {:>7.2} ms | {:>7.2} ms",
            b.name(),
            b.completion(1).as_millis_f64(),
            b.completion(64).as_millis_f64()
        );
    }
}
